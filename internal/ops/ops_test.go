package ops

import (
	"math"
	"testing"

	"subzero/internal/array"
	"subzero/internal/grid"
	"subzero/internal/lineage"
	"subzero/internal/workflow"
)

// opCase describes one operator test fixture.
type opCase struct {
	name     string
	op       workflow.Operator
	inShapes []grid.Shape
}

func mustConv(t *testing.T) *Convolve2D {
	t.Helper()
	k := [][]float64{{0, 0.2, 0}, {0.2, 0.2, 0.2}, {0, 0.2, 0}}
	c, err := NewConvolve2D("smooth", k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func allOpCases(t *testing.T) []opCase {
	t.Helper()
	slice, err := NewSliceRect("crop", grid.Rect{Lo: grid.Coord{1, 2}, Hi: grid.Coord{4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSubsample(2)
	if err != nil {
		t.Fatal(err)
	}
	return []opCase{
		{"unary", NewUnary("double", func(x float64) float64 { return 2 * x }), []grid.Shape{{5, 6}}},
		{"binary", NewBinary("add", func(a, b float64) float64 { return a + b }), []grid.Shape{{5, 6}, {5, 6}}},
		{"broadcast", NewBroadcast("sub-scalar", func(x, s float64) float64 { return x - s }), []grid.Shape{{4, 5}, {1, 1}}},
		{"transpose", NewTranspose(), []grid.Shape{{4, 7}}},
		{"matmul", NewMatMul(), []grid.Shape{{3, 4}, {4, 5}}},
		{"conv", mustConv(t), []grid.Shape{{6, 7}}},
		{"mean-all", NewMeanAll(), []grid.Shape{{4, 5}}},
		{"std-all", NewStdAll(), []grid.Shape{{4, 5}}},
		{"max-all", NewMaxAll(), []grid.Shape{{3, 3}}},
		{"col-mean", NewColMean(), []grid.Shape{{6, 4}}},
		{"col-center", NewColCenter("col-sub", func(x, s float64) float64 { return x - s }), []grid.Shape{{6, 4}, {1, 4}}},
		{"slice", slice, []grid.Shape{{7, 8}}},
		{"subsample", sub, []grid.Shape{{7, 9}}},
		{"concat0", NewConcat(0), []grid.Shape{{3, 4}, {2, 4}}},
		{"concat1", NewConcat(1), []grid.Shape{{3, 4}, {3, 2}}},
	}
}

func buildInputs(t *testing.T, shapes []grid.Shape) []*array.Array {
	t.Helper()
	ins := make([]*array.Array, len(shapes))
	seed := 1.0
	for i, s := range shapes {
		a, err := array.New("in", s)
		if err != nil {
			t.Fatal(err)
		}
		data := a.Data()
		for j := range data {
			data[j] = seed
			seed = math.Mod(seed*1.7+0.3, 100)
		}
		ins[i] = a
	}
	return ins
}

// TestMappingDuality exhaustively checks that map_f and map_b are duals:
// in ∈ map_b(out, i)  ⇔  out ∈ map_f(in, i), for every operator, cell,
// and input — on the per-cell maps the executor uses, which are derived
// from Cover for every operator that declares its geometry.
func TestMappingDuality(t *testing.T) {
	for _, tc := range allOpCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			outShape, err := tc.op.OutShape(tc.inShapes)
			if err != nil {
				t.Fatal(err)
			}
			outSpace := grid.NewSpace(outShape)
			inSpaces := make([]*grid.Space, len(tc.inShapes))
			for i, s := range tc.inShapes {
				inSpaces[i] = grid.NewSpace(s)
			}
			mc := workflow.NewMapCtx(outSpace, inSpaces)
			mapB, mapF := workflow.CellMap(tc.op, true), workflow.CellMap(tc.op, false)

			for i := range tc.inShapes {
				// backward[out] = set of ins; forward[in] = set of outs.
				backward := make(map[uint64]map[uint64]bool)
				for out := uint64(0); out < outSpace.Size(); out++ {
					set := map[uint64]bool{}
					for _, in := range mapB(mc, out, i, nil) {
						if in >= inSpaces[i].Size() {
							t.Fatalf("MapB(%d, %d) out of range: %d", out, i, in)
						}
						set[in] = true
					}
					backward[out] = set
				}
				for in := uint64(0); in < inSpaces[i].Size(); in++ {
					fwd := map[uint64]bool{}
					for _, out := range mapF(mc, in, i, nil) {
						if out >= outSpace.Size() {
							t.Fatalf("MapF(%d, %d) out of range: %d", in, i, out)
						}
						fwd[out] = true
					}
					for out := uint64(0); out < outSpace.Size(); out++ {
						if backward[out][in] != fwd[out] {
							t.Fatalf("duality broken: out=%d in=%d input=%d: MapB says %v, MapF says %v",
								out, in, i, backward[out][in], fwd[out])
						}
					}
				}
			}
		})
	}
}

// TestTracePairsMatchMapping verifies that running each operator in
// tracing mode (cur_modes = Full) emits region pairs whose relation equals
// the mapping functions' relation — black-box re-execution must agree with
// Map lineage.
func TestTracePairsMatchMapping(t *testing.T) {
	for _, tc := range allOpCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ins := buildInputs(t, tc.inShapes)
			outShape, err := tc.op.OutShape(tc.inShapes)
			if err != nil {
				t.Fatal(err)
			}
			outSpace := grid.NewSpace(outShape)
			inSpaces := spacesOf(ins)
			mc := workflow.NewMapCtx(outSpace, inSpaces)
			mapB := workflow.CellMap(tc.op, true)

			traced := make([]map[uint64]map[uint64]bool, len(ins))
			for i := range traced {
				traced[i] = make(map[uint64]map[uint64]bool)
			}
			sink := func(rp *lineage.RegionPair) error {
				for _, out := range rp.Out {
					for i, set := range rp.Ins {
						if traced[i][out] == nil {
							traced[i][out] = map[uint64]bool{}
						}
						for _, in := range set {
							traced[i][out][in] = true
						}
					}
				}
				return nil
			}
			w := lineage.NewWriter(outSpace, inSpaces, nil, sink)
			rc := workflow.NewRunCtx(lineage.NewModeSet(lineage.Full), w)
			if _, err := tc.op.Run(rc, ins); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := range ins {
				for out := uint64(0); out < outSpace.Size(); out++ {
					want := map[uint64]bool{}
					for _, in := range mapB(mc, out, i, nil) {
						want[in] = true
					}
					got := traced[i][out]
					if len(got) != len(want) {
						t.Fatalf("out=%d input=%d: traced %d cells, mapping says %d", out, i, len(got), len(want))
					}
					for in := range want {
						if !got[in] {
							t.Fatalf("out=%d input=%d: traced pairs missing input cell %d", out, i, in)
						}
					}
				}
			}
		})
	}
}

// TestRunValues spot-checks operator semantics.
func TestRunValues(t *testing.T) {
	rc := workflow.NewRunCtx(lineage.NewModeSet(lineage.Blackbox), nil)

	a := array.MustNew("a", grid.Shape{2, 2})
	copy(a.Data(), []float64{1, 2, 3, 4})
	b := array.MustNew("b", grid.Shape{2, 2})
	copy(b.Data(), []float64{10, 20, 30, 40})

	sum, err := NewBinary("add", func(x, y float64) float64 { return x + y }).Run(rc, []*array.Array{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Get2(1, 1) != 44 || sum.Get2(0, 0) != 11 {
		t.Fatalf("add wrong: %v", sum.Data())
	}

	tr, err := NewTranspose().Run(rc, []*array.Array{a})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Get2(0, 1) != 3 || tr.Get2(1, 0) != 2 {
		t.Fatal("transpose wrong")
	}

	mm, err := NewMatMul().Run(rc, []*array.Array{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// [1 2;3 4][10 20;30 40] = [70 100; 150 220]
	if mm.Get2(0, 0) != 70 || mm.Get2(1, 1) != 220 {
		t.Fatalf("matmul wrong: %v", mm.Data())
	}

	mean, err := NewMeanAll().Run(rc, []*array.Array{a})
	if err != nil {
		t.Fatal(err)
	}
	if mean.Get(0) != 2.5 {
		t.Fatalf("mean=%f", mean.Get(0))
	}

	mx, err := NewMaxAll().Run(rc, []*array.Array{a})
	if err != nil || mx.Get(0) != 4 {
		t.Fatalf("max=%v err=%v", mx.Get(0), err)
	}

	std, err := NewStdAll().Run(rc, []*array.Array{a})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(std.Get(0)-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("std=%f", std.Get(0))
	}

	cm, err := NewColMean().Run(rc, []*array.Array{a})
	if err != nil || cm.Get2(0, 0) != 2 || cm.Get2(0, 1) != 3 {
		t.Fatalf("col-mean wrong: %v", cm.Data())
	}
}

func TestSliceAndSubsampleValues(t *testing.T) {
	rc := workflow.NewRunCtx(lineage.NewModeSet(lineage.Blackbox), nil)
	a := array.MustNew("a", grid.Shape{4, 4})
	for i := range a.Data() {
		a.Data()[i] = float64(i)
	}
	sl, err := NewSliceRect("crop", grid.Rect{Lo: grid.Coord{1, 1}, Hi: grid.Coord{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sl.Run(rc, []*array.Array{a})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape().Equal(grid.Shape{2, 3}) || out.Get2(0, 0) != 5 || out.Get2(1, 2) != 11 {
		t.Fatalf("slice wrong: %v %v", out.Shape(), out.Data())
	}

	ss, err := NewSubsample(2)
	if err != nil {
		t.Fatal(err)
	}
	out, err = ss.Run(rc, []*array.Array{a})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape().Equal(grid.Shape{2, 2}) || out.Get2(1, 1) != 10 {
		t.Fatalf("subsample wrong: %v %v", out.Shape(), out.Data())
	}

	cc := NewConcat(1)
	out, err = cc.Run(rc, []*array.Array{a, a})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape().Equal(grid.Shape{4, 8}) || out.Get2(0, 4) != 0 || out.Get2(0, 3) != 3 {
		t.Fatalf("concat wrong: %v", out.Shape())
	}
}

func TestConvolutionSemantics(t *testing.T) {
	rc := workflow.NewRunCtx(lineage.NewModeSet(lineage.Blackbox), nil)
	// Identity kernel: output equals input, including at borders.
	ident, err := NewConvolve2D("ident", [][]float64{{0, 0, 0}, {0, 1, 0}, {0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	a := array.MustNew("a", grid.Shape{3, 3})
	for i := range a.Data() {
		a.Data()[i] = float64(i * i)
	}
	out, err := ident.Run(rc, []*array.Array{a})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data() {
		if out.Data()[i] != a.Data()[i] {
			t.Fatalf("identity convolution changed cell %d", i)
		}
	}
	if _, err := NewConvolve2D("bad", [][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Fatal("even kernel accepted")
	}
	if _, err := NewConvolve2D("bad", [][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("non-square kernel accepted")
	}
}

func TestOutShapeValidation(t *testing.T) {
	if _, err := NewMatMul().OutShape([]grid.Shape{{2, 3}, {4, 5}}); err == nil {
		t.Fatal("mismatched matmul accepted")
	}
	if _, err := NewTranspose().OutShape([]grid.Shape{{2, 3, 4}}); err == nil {
		t.Fatal("3-D transpose accepted")
	}
	bin := NewBinary("add", func(a, b float64) float64 { return a + b })
	if _, err := bin.OutShape([]grid.Shape{{2, 2}, {3, 3}}); err == nil {
		t.Fatal("mismatched binary accepted")
	}
	bc := NewBroadcast("s", func(x, s float64) float64 { return x })
	if _, err := bc.OutShape([]grid.Shape{{2, 2}, {2, 2}}); err == nil {
		t.Fatal("non-scalar broadcast accepted")
	}
	cc := NewColCenter("c", func(x, s float64) float64 { return x })
	if _, err := cc.OutShape([]grid.Shape{{4, 3}, {1, 2}}); err == nil {
		t.Fatal("mismatched col-center accepted")
	}
	if _, err := NewConcat(2).OutShape([]grid.Shape{{2, 2}, {2, 2}}); err == nil {
		t.Fatal("concat axis out of range accepted")
	}
	if _, err := NewSubsample(0); err == nil {
		t.Fatal("zero stride accepted")
	}
}

func TestAllToAllAnnotations(t *testing.T) {
	if !workflow.IsAllToAll(NewMeanAll()) {
		t.Fatal("reduce must be annotated all-to-all")
	}
	for _, tc := range allOpCases(t) {
		if tc.name == "mean-all" || tc.name == "std-all" || tc.name == "max-all" {
			continue
		}
		if workflow.IsAllToAll(tc.op) {
			t.Fatalf("%s wrongly annotated all-to-all", tc.name)
		}
	}
}

func TestSupportedModes(t *testing.T) {
	for _, tc := range allOpCases(t) {
		if !workflow.Supports(tc.op, lineage.Map) || !workflow.Supports(tc.op, lineage.Full) {
			t.Fatalf("%s must support Map and Full", tc.name)
		}
		if !workflow.Supports(tc.op, lineage.Blackbox) {
			t.Fatalf("%s must implicitly support Blackbox", tc.name)
		}
		if workflow.Supports(tc.op, lineage.Pay) {
			t.Fatalf("%s should not claim Pay support", tc.name)
		}
	}
}
