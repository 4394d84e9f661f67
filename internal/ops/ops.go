// Package ops provides SubZero's built-in operator library: the common
// matrix and statistical operators the paper instruments with forward and
// backward mapping functions (§V-A2: "Most SciDB operators (e.g., matrix
// multiply, join, transpose, convolution) are mapping operators, and we
// have implemented their forward and backward mapping functions").
//
// Every operator here supports Map lineage (zero storage, lineage computed
// from coordinates) and Full lineage (region pairs synthesized from map_b
// during tracing-mode re-execution, which is how black-box queries are
// answered). All but Subsample declare their geometry once
// (workflow.Geometry): the rectangle of cells the map sends a rectangle
// to, from which the per-cell map_b and map_f are derived.
package ops

import (
	"fmt"

	"subzero/internal/array"
	"subzero/internal/grid"
	"subzero/internal/lineage"
	"subzero/internal/workflow"
)

// mappingModes is the supported-mode set shared by all built-ins.
func mappingModes() []lineage.Mode { return []lineage.Mode{lineage.Map, lineage.Full} }

// spacesOf extracts the coordinate spaces of the inputs.
func spacesOf(ins []*array.Array) []*grid.Space {
	sp := make([]*grid.Space, len(ins))
	for i, a := range ins {
		sp[i] = a.Space()
	}
	return sp
}

// emitTracePairs synthesizes full region pairs from the operator's map_b
// when the execution requests Full lineage (tracing mode).
func emitTracePairs(rc *workflow.RunCtx, op workflow.Operator, out *array.Array, ins []*array.Array) error {
	if !rc.NeedsPairs() {
		return nil
	}
	mc := workflow.NewMapCtx(out.Space(), spacesOf(ins))
	return workflow.EmitMappedPairs(rc, mc, op)
}

func requireSameShapes(ins []*array.Array) error {
	for i := 1; i < len(ins); i++ {
		if !ins[i].Shape().Equal(ins[0].Shape()) {
			return fmt.Errorf("ops: input %d shape %v differs from input 0 shape %v", i, ins[i].Shape(), ins[0].Shape())
		}
	}
	return nil
}

// identity is the geometry of one-to-one operators: the cells at the same
// coordinates.
func identity(src, dst grid.Rect) bool {
	for d := range src.Lo {
		dst.Lo[d], dst.Hi[d] = src.Lo[d], src.Hi[d]
	}
	return true
}

// whole is the geometry of a map onto every cell of sp.
func whole(sp *grid.Space, dst grid.Rect) bool {
	for d, n := range sp.Shape() {
		dst.Lo[d], dst.Hi[d] = 0, n-1
	}
	return true
}

// band is the geometry of a 2-D map that keeps the source's extent along
// dimension keep and spans the other dimension of the destination sp.
func band(sp *grid.Space, keep int, src, dst grid.Rect) bool {
	span := 1 - keep
	dst.Lo[keep], dst.Hi[keep] = src.Lo[keep], src.Hi[keep]
	dst.Lo[span], dst.Hi[span] = 0, sp.Shape()[span]-1
	return true
}

// ---------------------------------------------------------------------
// Unary elementwise operators (one-to-one mapping operators).
// ---------------------------------------------------------------------

// Unary applies a scalar function cell-wise; output cell (c) depends
// exactly on input cell (c).
type Unary struct {
	workflow.Meta
	Fn func(float64) float64
}

// NewUnary builds a unary elementwise operator with the given name.
func NewUnary(name string, fn func(float64) float64) *Unary {
	return &Unary{Meta: workflow.Meta{OpName: name, NIn: 1, Modes: mappingModes()}, Fn: fn}
}

// OutShape implements Operator.
func (u *Unary) OutShape(in []grid.Shape) (grid.Shape, error) { return workflow.SameShapeOut(in) }

// Run implements Operator.
func (u *Unary) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	out, err := array.New(u.OpName, ins[0].Shape())
	if err != nil {
		return nil, err
	}
	src, dst := ins[0].Data(), out.Data()
	for i := range src {
		dst[i] = u.Fn(src[i])
	}
	if err := emitTracePairs(rc, u, out, ins); err != nil {
		return nil, err
	}
	return out, nil
}

// Cover implements Geometry: the same cells.
func (u *Unary) Cover(_ *workflow.MapCtx, _ bool, src grid.Rect, _ int, dst grid.Rect) bool {
	return identity(src, dst)
}

// ---------------------------------------------------------------------
// Binary elementwise operators.
// ---------------------------------------------------------------------

// Binary combines two same-shaped arrays cell-wise; output cell (c)
// depends on cell (c) of each input.
type Binary struct {
	workflow.Meta
	Fn func(a, b float64) float64
}

// NewBinary builds a binary elementwise operator.
func NewBinary(name string, fn func(a, b float64) float64) *Binary {
	return &Binary{Meta: workflow.Meta{OpName: name, NIn: 2, Modes: mappingModes()}, Fn: fn}
}

// OutShape implements Operator.
func (b *Binary) OutShape(in []grid.Shape) (grid.Shape, error) {
	if len(in) != 2 || !in[0].Equal(in[1]) {
		return nil, fmt.Errorf("ops: %s requires two equal shapes, got %v", b.OpName, in)
	}
	return in[0].Clone(), nil
}

// Run implements Operator.
func (b *Binary) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	if err := requireSameShapes(ins); err != nil {
		return nil, err
	}
	out, err := array.New(b.OpName, ins[0].Shape())
	if err != nil {
		return nil, err
	}
	x, y, dst := ins[0].Data(), ins[1].Data(), out.Data()
	for i := range x {
		dst[i] = b.Fn(x[i], y[i])
	}
	if err := emitTracePairs(rc, b, out, ins); err != nil {
		return nil, err
	}
	return out, nil
}

// Cover implements Geometry: the same cells of either input.
func (b *Binary) Cover(_ *workflow.MapCtx, _ bool, src grid.Rect, _ int, dst grid.Rect) bool {
	return identity(src, dst)
}

// ---------------------------------------------------------------------
// Broadcast: combine an array with a 1x1 scalar array.
// ---------------------------------------------------------------------

// Broadcast combines input 0 cell-wise with the single cell of input 1
// (e.g., subtracting a previously computed mean). Output cell (c) depends
// on input-0 cell (c) and on the scalar cell; the scalar's forward lineage
// is the entire output.
type Broadcast struct {
	workflow.Meta
	Fn func(x, scalar float64) float64
}

// NewBroadcast builds a broadcast-combine operator.
func NewBroadcast(name string, fn func(x, scalar float64) float64) *Broadcast {
	return &Broadcast{Meta: workflow.Meta{OpName: name, NIn: 2, Modes: mappingModes()}, Fn: fn}
}

// OutShape implements Operator.
func (b *Broadcast) OutShape(in []grid.Shape) (grid.Shape, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("ops: %s requires 2 inputs", b.OpName)
	}
	if in[1].Size() != 1 {
		return nil, fmt.Errorf("ops: %s input 1 must be a scalar array, got %v", b.OpName, in[1])
	}
	return in[0].Clone(), nil
}

// Run implements Operator.
func (b *Broadcast) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	out, err := array.New(b.OpName, ins[0].Shape())
	if err != nil {
		return nil, err
	}
	scalar := ins[1].Get(0)
	x, dst := ins[0].Data(), out.Data()
	for i := range x {
		dst[i] = b.Fn(x[i], scalar)
	}
	if err := emitTracePairs(rc, b, out, ins); err != nil {
		return nil, err
	}
	return out, nil
}

// Cover implements Geometry: the same cells of input 0; every output cell
// reads the scalar's one cell, and the scalar feeds the whole output.
func (b *Broadcast) Cover(mc *workflow.MapCtx, backward bool, src grid.Rect, inputIdx int, dst grid.Rect) bool {
	if inputIdx == 0 {
		return identity(src, dst)
	}
	return whole(mc.DstSpace(backward, 1), dst)
}

// EntireArraySafe: one-to-one operators map full arrays to full arrays in
// both directions.
func (u *Unary) EntireArraySafe(bool, int) bool { return true }

// EntireArraySafe: cell-wise combination preserves full arrays both ways.
func (b *Binary) EntireArraySafe(bool, int) bool { return true }

// EntireArraySafe: the scalar cell and every data cell appear in some
// pair, so full maps to full in both directions for both inputs.
func (b *Broadcast) EntireArraySafe(bool, int) bool { return true }
