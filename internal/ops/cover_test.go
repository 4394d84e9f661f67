package ops_test

import (
	"math/rand"
	"testing"

	"subzero/internal/astro"
	"subzero/internal/grid"
	"subzero/internal/ops"
	"subzero/internal/workflow"
)

// refMap is the per-cell map each declared operator's Cover must agree
// with: the hand-written MapB (backward) and MapF (forward) bodies the
// built-ins carried before they declared their geometry.
func refMap(op workflow.Operator, mc *workflow.MapCtx, backward bool, cell uint64, inputIdx int, dst []uint64) []uint64 {
	switch o := op.(type) {
	case *ops.Unary, *ops.Binary, *astro.CosmicRayDetect, *astro.CosmicRayRemove:
		return append(dst, cell)
	case *ops.Broadcast:
		switch {
		case inputIdx == 0:
			return append(dst, cell)
		case backward:
			return append(dst, 0)
		}
		for idx := uint64(0); idx < mc.OutSpace.Size(); idx++ {
			dst = append(dst, idx)
		}
		return dst
	case *ops.Transpose:
		if backward {
			c := mc.OutCoord(cell)
			return append(dst, mc.InSpaces[0].Ravel(grid.Coord{c[1], c[0]}))
		}
		c := mc.InCoord(0, cell)
		return append(dst, mc.OutSpace.Ravel(grid.Coord{c[1], c[0]}))
	case *ops.Convolve2D:
		radius := len(o.Kernel) / 2
		if backward {
			return grid.Neighborhood(mc.InSpaces[0], mc.OutCoord(cell), radius, dst)
		}
		return grid.Neighborhood(mc.OutSpace, mc.InCoord(0, cell), radius, dst)
	case *ops.SliceRect:
		if backward {
			c := mc.OutCoord(cell)
			src := make(grid.Coord, len(c))
			for d := range c {
				src[d] = c[d] + o.Window.Lo[d]
			}
			return append(dst, mc.InSpaces[0].Ravel(src))
		}
		c := mc.InCoord(0, cell)
		if !o.Window.Contains(c) {
			return dst
		}
		shifted := make(grid.Coord, len(c))
		for d := range c {
			shifted[d] = c[d] - o.Window.Lo[d]
		}
		return append(dst, mc.OutSpace.Ravel(shifted))
	case *ops.Concat:
		split := mc.InSpaces[0].Shape()[o.Axis]
		if backward {
			coord := mc.OutCoord(cell)
			src := coord.Clone()
			if coord[o.Axis] < split {
				if inputIdx != 0 {
					return dst
				}
				return append(dst, mc.InSpaces[0].Ravel(src))
			}
			if inputIdx != 1 {
				return dst
			}
			src[o.Axis] -= split
			return append(dst, mc.InSpaces[1].Ravel(src))
		}
		shifted := mc.InCoord(inputIdx, cell).Clone()
		if inputIdx == 1 {
			shifted[o.Axis] += split
		}
		return append(dst, mc.OutSpace.Ravel(shifted))
	case *ops.Reduce:
		if !backward {
			return append(dst, 0)
		}
		for idx := uint64(0); idx < mc.InSpaces[0].Size(); idx++ {
			dst = append(dst, idx)
		}
		return dst
	case *ops.ColReduce:
		if !backward {
			j := mc.InCoord(0, cell)[1]
			return append(dst, mc.OutSpace.Ravel(grid.Coord{0, j}))
		}
		j := mc.OutCoord(cell)[1]
		for i := 0; i < mc.InSpaces[0].Shape()[0]; i++ {
			dst = append(dst, mc.InSpaces[0].Ravel(grid.Coord{i, j}))
		}
		return dst
	case *ops.ColCenter:
		if inputIdx == 0 {
			return append(dst, cell)
		}
		if backward {
			j := mc.OutCoord(cell)[1]
			return append(dst, mc.InSpaces[1].Ravel(grid.Coord{0, j}))
		}
		j := mc.InCoord(1, cell)[1]
		for i := 0; i < mc.OutSpace.Shape()[0]; i++ {
			dst = append(dst, mc.OutSpace.Ravel(grid.Coord{i, j}))
		}
		return dst
	case *ops.MatMul:
		if backward {
			c := mc.OutCoord(cell)
			if inputIdx == 0 {
				for k := 0; k < mc.InSpaces[0].Shape()[1]; k++ {
					dst = append(dst, mc.InSpaces[0].Ravel(grid.Coord{c[0], k}))
				}
				return dst
			}
			for k := 0; k < mc.InSpaces[1].Shape()[0]; k++ {
				dst = append(dst, mc.InSpaces[1].Ravel(grid.Coord{k, c[1]}))
			}
			return dst
		}
		c := mc.InCoord(inputIdx, cell)
		if inputIdx == 0 {
			for j := 0; j < mc.OutSpace.Shape()[1]; j++ {
				dst = append(dst, mc.OutSpace.Ravel(grid.Coord{c[0], j}))
			}
			return dst
		}
		for i := 0; i < mc.OutSpace.Shape()[0]; i++ {
			dst = append(dst, mc.OutSpace.Ravel(grid.Coord{i, c[1]}))
		}
		return dst
	}
	panic("refMap: no reference for " + op.Name())
}

// draws turns fuzz bytes into bounded choices; an exhausted input draws 0.
type draws []byte

func (d *draws) intn(n int) int {
	if len(*d) == 0 || n <= 1 {
		return 0
	}
	v := int((*d)[0]) % n
	*d = (*d)[1:]
	return v
}

// extent draws a dimension of 1–9 cells, one cell a third of the time, so
// 1×N and N×1 shapes are common.
func (d *draws) extent() int {
	if d.intn(3) == 0 {
		return 1
	}
	return 1 + d.intn(9)
}

func (d *draws) shape(rank int) grid.Shape {
	s := make(grid.Shape, rank)
	for i := range s {
		s[i] = d.extent()
	}
	return s
}

// rect draws a rectangle inside s that spans a dimension, touches its
// first or last cell, or sits anywhere in it.
func (d *draws) rect(s grid.Shape) grid.Rect {
	r := grid.Rect{Lo: make(grid.Coord, len(s)), Hi: make(grid.Coord, len(s))}
	for i, n := range s {
		lo, hi := d.intn(n), d.intn(n)
		if lo > hi {
			lo, hi = hi, lo
		}
		switch d.intn(4) {
		case 0:
			lo, hi = 0, n-1
		case 1:
			lo = 0
		case 2:
			hi = n - 1
		}
		r.Lo[i], r.Hi[i] = lo, hi
	}
	return r
}

// declaredOp draws one operator that declares its geometry, with input
// shapes it accepts.
func declaredOp(t *testing.T, d *draws) (workflow.Operator, []grid.Shape) {
	rank := 1 + d.intn(3)
	switch d.intn(13) {
	case 0:
		return ops.NewUnary("neg", func(x float64) float64 { return -x }), []grid.Shape{d.shape(rank)}
	case 1:
		s := d.shape(rank)
		return ops.NewBinary("add", func(a, b float64) float64 { return a + b }), []grid.Shape{s, s}
	case 2:
		return ops.NewBroadcast("sub", func(x, s float64) float64 { return x - s }), []grid.Shape{d.shape(rank), {1, 1}}
	case 3:
		return ops.NewTranspose(), []grid.Shape{d.shape(2)}
	case 4:
		// Radii reach past the largest extent the draws make.
		n := 2*d.intn(12) + 1
		kernel := make([][]float64, n)
		for i := range kernel {
			kernel[i] = make([]float64, n)
		}
		c, err := ops.NewConvolve2D("conv", kernel)
		if err != nil {
			t.Fatal(err)
		}
		return c, []grid.Shape{d.shape(2)}
	case 5:
		s := d.shape(rank)
		op, err := ops.NewSliceRect("crop", d.rect(s))
		if err != nil {
			t.Fatal(err)
		}
		return op, []grid.Shape{s}
	case 6:
		a := d.shape(rank)
		b := a.Clone()
		axis := d.intn(rank)
		b[axis] = d.extent()
		return ops.NewConcat(axis), []grid.Shape{a, b}
	case 7:
		return ops.NewColMean(), []grid.Shape{d.shape(2)}
	case 8:
		s := d.shape(2)
		return ops.NewColCenter("center", func(x, m float64) float64 { return x - m }), []grid.Shape{s, {1, s[1]}}
	case 9:
		a := d.shape(2)
		return ops.NewMatMul(), []grid.Shape{a, {a[1], d.extent()}}
	case 10:
		return ops.NewMeanAll(), []grid.Shape{d.shape(rank)}
	case 11:
		return astro.NewCosmicRayDetect(0.5), []grid.Shape{d.shape(2)}
	default:
		s := d.shape(2)
		return astro.NewCosmicRayRemove(), []grid.Shape{s, s}
	}
}

// checkCover draws an operator and, for both directions and every input, a
// source rectangle; the union of the reference map over its cells must be
// exactly the rectangle Cover writes, clipped to the destination, and
// Cover must return false exactly when that union is empty.
func checkCover(t *testing.T, data []byte) {
	d := draws(data)
	op, inShapes := declaredOp(t, &d)
	g, ok := op.(workflow.Geometry)
	if !ok {
		t.Fatalf("%s declares no geometry", op.Name())
	}
	outShape, err := op.OutShape(inShapes)
	if err != nil {
		t.Fatalf("%s over %v: %v", op.Name(), inShapes, err)
	}
	inSpaces := make([]*grid.Space, len(inShapes))
	for i, s := range inShapes {
		inSpaces[i] = grid.NewSpace(s)
	}
	mc := workflow.NewMapCtx(grid.NewSpace(outShape), inSpaces)
	for _, backward := range []bool{true, false} {
		for i := range inShapes {
			srcSp, dstSp := mc.SrcSpace(backward, i), mc.DstSpace(backward, i)
			src := d.rect(srcSp.Shape())
			want := map[uint64]bool{}
			var buf []uint64
			for _, cell := range src.Cells(srcSp, nil) {
				for _, c := range refMap(op, mc, backward, cell, i, buf[:0]) {
					want[c] = true
				}
			}
			dst := grid.Rect{Lo: make(grid.Coord, dstSp.Rank()), Hi: make(grid.Coord, dstSp.Rank())}
			covered := g.Cover(mc, backward, src, i, dst)
			if !covered || !dst.Clamp(dstSp.Shape()) {
				if len(want) != 0 || covered {
					t.Fatalf("%s %v backward=%v input %d src %v: Cover %v (clipped %v), reference maps to %d cells",
						op.Name(), inShapes, backward, i, src, covered, dst, len(want))
				}
				continue
			}
			got := dst.Cells(dstSp, nil)
			if len(got) != len(want) {
				t.Fatalf("%s %v backward=%v input %d src %v: Cover %v holds %d cells, reference %d",
					op.Name(), inShapes, backward, i, src, dst, len(got), len(want))
			}
			for _, c := range got {
				if !want[c] {
					t.Fatalf("%s %v backward=%v input %d src %v: Cover %v holds cell %d the reference does not",
						op.Name(), inShapes, backward, i, src, dst, c)
				}
			}
		}
	}
}

// FuzzCoverMatchesReference holds every declared operator's Cover to the
// per-cell map it replaced.
func FuzzCoverMatchesReference(f *testing.F) {
	for op := byte(0); op < 13; op++ {
		// Minimal shapes (every extent 1), then edge-touching rectangles
		// on 1×N and N×1 shapes, then a large radius.
		f.Add([]byte{0, op})
		f.Add([]byte{1, op, 0, 7, 1, 0, 3, 5, 1, 2, 6, 2, 0, 3, 4, 1, 8, 8, 3})
		f.Add([]byte{1, op, 1, 0, 0, 5, 0, 0, 2, 4, 7, 0, 1, 1, 5, 3})
		f.Add([]byte{2, op, 11, 2, 8, 2, 8, 2, 8, 1, 0, 0, 2, 3, 3, 0, 5, 6, 1})
	}
	f.Fuzz(checkCover)
}

// TestCoverMatchesReference runs the fuzz target's check on random draws,
// so the plain test run covers more than the seed corpus.
func TestCoverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	data := make([]byte, 48)
	for trial := 0; trial < 3000; trial++ {
		rng.Read(data)
		checkCover(t, data)
	}
}

// Every built-in but Subsample declares its geometry and keeps no per-cell
// map beside it; Subsample's backward map is strided, so it keeps MapB and
// MapF. The cosmic-ray UDFs declare their composite default the same way.
func TestBuiltinsDeclareGeometryOnly(t *testing.T) {
	sub, err := ops.NewSubsample(2)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := ops.NewConvolve2D("conv", [][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	slice, err := ops.NewSliceRect("crop", grid.Rect{Lo: grid.Coord{0}, Hi: grid.Coord{0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []workflow.Operator{
		ops.NewUnary("u", nil), ops.NewBinary("b", nil), ops.NewBroadcast("s", nil), ops.NewTranspose(),
		conv, slice, ops.NewConcat(0), ops.NewColMean(), ops.NewColCenter("c", nil), ops.NewMatMul(),
		ops.NewMeanAll(), astro.NewCosmicRayDetect(0), astro.NewCosmicRayRemove(),
	} {
		_, geom := op.(workflow.Geometry)
		_, mapB := op.(workflow.BackwardMapper)
		_, mapF := op.(workflow.ForwardMapper)
		if !geom || mapB || mapF {
			t.Errorf("%s: Geometry %v, MapB %v, MapF %v; want Geometry only", op.Name(), geom, mapB, mapF)
		}
	}
	_, geom := any(sub).(workflow.Geometry)
	_, mapB := any(sub).(workflow.BackwardMapper)
	_, mapF := any(sub).(workflow.ForwardMapper)
	if geom || !mapB || !mapF {
		t.Errorf("subsample: Geometry %v, MapB %v, MapF %v; want MapB and MapF", geom, mapB, mapF)
	}
}
