package ops

import (
	"fmt"

	"subzero/internal/array"
	"subzero/internal/grid"
	"subzero/internal/workflow"
)

// ---------------------------------------------------------------------
// Slice: extract a rectangular window.
// ---------------------------------------------------------------------

// SliceRect copies the cells inside a rectangle into a new array whose
// origin is the rectangle's low corner. Output (c) depends on input
// (c + Lo) — a pure coordinate shift.
type SliceRect struct {
	workflow.Meta
	Window grid.Rect
}

// NewSliceRect builds a slicing operator for the given window.
func NewSliceRect(name string, window grid.Rect) (*SliceRect, error) {
	if err := window.Validate(); err != nil {
		return nil, err
	}
	return &SliceRect{
		Meta:   workflow.Meta{OpName: name, NIn: 1, Modes: mappingModes()},
		Window: window,
	}, nil
}

// OutShape implements Operator.
func (s *SliceRect) OutShape(in []grid.Shape) (grid.Shape, error) {
	if len(in) != 1 || len(in[0]) != s.Window.Rank() {
		return nil, fmt.Errorf("ops: %s window rank %d does not match input %v", s.OpName, s.Window.Rank(), in)
	}
	if !in[0].Contains(s.Window.Lo) || !in[0].Contains(s.Window.Hi) {
		return nil, fmt.Errorf("ops: %s window %v outside input shape %v", s.OpName, s.Window, in[0])
	}
	shape := make(grid.Shape, s.Window.Rank())
	for d := range shape {
		shape[d] = s.Window.Hi[d] - s.Window.Lo[d] + 1
	}
	return shape, nil
}

// Run implements Operator.
func (s *SliceRect) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	shape, err := s.OutShape([]grid.Shape{ins[0].Shape()})
	if err != nil {
		return nil, err
	}
	out, err := array.New(s.OpName, shape)
	if err != nil {
		return nil, err
	}
	outSp := out.Space()
	coord := make(grid.Coord, len(shape))
	src := make(grid.Coord, len(shape))
	for idx := uint64(0); idx < outSp.Size(); idx++ {
		outSp.UnravelInto(idx, coord)
		for d := range coord {
			src[d] = coord[d] + s.Window.Lo[d]
		}
		out.Set(idx, ins[0].GetAt(src))
	}
	if err := emitTracePairs(rc, s, out, ins); err != nil {
		return nil, err
	}
	return out, nil
}

// Cover implements Geometry: a shift by the window's low corner; forward,
// cells outside the window have no descendants.
func (s *SliceRect) Cover(_ *workflow.MapCtx, backward bool, src grid.Rect, _ int, dst grid.Rect) bool {
	w := s.Window
	for d := range src.Lo {
		if backward {
			dst.Lo[d], dst.Hi[d] = src.Lo[d]+w.Lo[d], src.Hi[d]+w.Lo[d]
			continue
		}
		lo, hi := max(src.Lo[d], w.Lo[d]), min(src.Hi[d], w.Hi[d])
		if lo > hi {
			return false
		}
		dst.Lo[d], dst.Hi[d] = lo-w.Lo[d], hi-w.Lo[d]
	}
	return true
}

// ---------------------------------------------------------------------
// Subsample: keep every k-th cell along each dimension.
// ---------------------------------------------------------------------

// Subsample keeps cells whose coordinates are multiples of the stride.
// Output (c) depends on input (c*stride).
type Subsample struct {
	workflow.Meta
	Stride int
}

// NewSubsample builds a stride-k subsampler.
func NewSubsample(stride int) (*Subsample, error) {
	if stride <= 0 {
		return nil, fmt.Errorf("ops: subsample stride must be positive, got %d", stride)
	}
	return &Subsample{
		Meta:   workflow.Meta{OpName: fmt.Sprintf("subsample%d", stride), NIn: 1, Modes: mappingModes()},
		Stride: stride,
	}, nil
}

// OutShape implements Operator.
func (s *Subsample) OutShape(in []grid.Shape) (grid.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("ops: subsample requires 1 input")
	}
	shape := make(grid.Shape, len(in[0]))
	for d, n := range in[0] {
		shape[d] = (n + s.Stride - 1) / s.Stride
	}
	return shape, nil
}

// Run implements Operator.
func (s *Subsample) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	shape, err := s.OutShape([]grid.Shape{ins[0].Shape()})
	if err != nil {
		return nil, err
	}
	out, err := array.New(s.OpName, shape)
	if err != nil {
		return nil, err
	}
	outSp := out.Space()
	coord := make(grid.Coord, len(shape))
	src := make(grid.Coord, len(shape))
	for idx := uint64(0); idx < outSp.Size(); idx++ {
		outSp.UnravelInto(idx, coord)
		for d := range coord {
			src[d] = coord[d] * s.Stride
		}
		out.Set(idx, ins[0].GetAt(src))
	}
	if err := emitTracePairs(rc, s, out, ins); err != nil {
		return nil, err
	}
	return out, nil
}

// MapB implements BackwardMapper.
func (s *Subsample) MapB(mc *workflow.MapCtx, out uint64, _ int, dst []uint64) []uint64 {
	c := mc.OutCoord(out)
	src := make(grid.Coord, len(c))
	for d := range c {
		src[d] = c[d] * s.Stride
	}
	return append(dst, mc.InSpaces[0].Ravel(src))
}

// MapF implements ForwardMapper: only stride-aligned cells survive.
func (s *Subsample) MapF(mc *workflow.MapCtx, in uint64, _ int, dst []uint64) []uint64 {
	c := mc.InCoord(0, in)
	shifted := make(grid.Coord, len(c))
	for d := range c {
		if c[d]%s.Stride != 0 {
			return dst
		}
		shifted[d] = c[d] / s.Stride
	}
	return append(dst, mc.OutSpace.Ravel(shifted))
}

// ---------------------------------------------------------------------
// Concat: stack two arrays along a dimension.
// ---------------------------------------------------------------------

// Concat concatenates input 1 after input 0 along the given axis — the
// paper's §VI-C example of an operator where the entire-array optimization
// would be wrong (each input's forward lineage is only part of the
// output), so it deliberately has no AllToAll annotation.
type Concat struct {
	workflow.Meta
	Axis int
}

// NewConcat builds a concatenation along axis.
func NewConcat(axis int) *Concat {
	return &Concat{
		Meta: workflow.Meta{OpName: fmt.Sprintf("concat%d", axis), NIn: 2, Modes: mappingModes()},
		Axis: axis,
	}
}

// OutShape implements Operator.
func (c *Concat) OutShape(in []grid.Shape) (grid.Shape, error) {
	if len(in) != 2 || len(in[0]) != len(in[1]) {
		return nil, fmt.Errorf("ops: concat requires two same-rank inputs")
	}
	if c.Axis < 0 || c.Axis >= len(in[0]) {
		return nil, fmt.Errorf("ops: concat axis %d out of range for rank %d", c.Axis, len(in[0]))
	}
	shape := in[0].Clone()
	for d := range shape {
		if d == c.Axis {
			shape[d] = in[0][d] + in[1][d]
		} else if in[0][d] != in[1][d] {
			return nil, fmt.Errorf("ops: concat inputs differ in dimension %d", d)
		}
	}
	return shape, nil
}

// Run implements Operator.
func (c *Concat) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	shape, err := c.OutShape([]grid.Shape{ins[0].Shape(), ins[1].Shape()})
	if err != nil {
		return nil, err
	}
	out, err := array.New(c.OpName, shape)
	if err != nil {
		return nil, err
	}
	outSp := out.Space()
	coord := make(grid.Coord, len(shape))
	src := make(grid.Coord, len(shape))
	split := ins[0].Shape()[c.Axis]
	for idx := uint64(0); idx < outSp.Size(); idx++ {
		outSp.UnravelInto(idx, coord)
		copy(src, coord)
		if coord[c.Axis] < split {
			out.Set(idx, ins[0].GetAt(src))
		} else {
			src[c.Axis] -= split
			out.Set(idx, ins[1].GetAt(src))
		}
	}
	if err := emitTracePairs(rc, c, out, ins); err != nil {
		return nil, err
	}
	return out, nil
}

// Cover implements Geometry: input 1's cells sit past input 0's along the
// axis; backward, only the part of src on input inputIdx's side maps.
func (c *Concat) Cover(mc *workflow.MapCtx, backward bool, src grid.Rect, inputIdx int, dst grid.Rect) bool {
	a, split := c.Axis, mc.InSpaces[0].Shape()[c.Axis]
	off := 0
	if inputIdx == 1 {
		off = split
	}
	identity(src, dst)
	if !backward {
		dst.Lo[a], dst.Hi[a] = src.Lo[a]+off, src.Hi[a]+off
		return true
	}
	lo, hi := src.Lo[a], src.Hi[a]
	if inputIdx == 0 {
		hi = min(hi, split-1)
	} else {
		lo = max(lo, split)
	}
	dst.Lo[a], dst.Hi[a] = lo-off, hi-off
	return lo <= hi
}

// EntireArraySafe: a full input covers the whole window (forward), but a
// full output only reaches the window's cells, not the whole input.
func (s *SliceRect) EntireArraySafe(forward bool, _ int) bool { return forward }

// EntireArraySafe: stride-aligned cells cover every output (forward), but
// backward only reaches the stride-aligned input cells.
func (s *Subsample) EntireArraySafe(forward bool, _ int) bool { return forward }

// EntireArraySafe: the paper's counterexample (§VI-C) — one input's
// forward lineage is only part of the output, so forward is unsafe; a
// full output does cover each input entirely.
func (c *Concat) EntireArraySafe(forward bool, _ int) bool { return !forward }
