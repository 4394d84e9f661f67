// Package workflow implements the SubZero workflow executor (paper §III,
// §IV): directed acyclic graphs of operators over multi-dimensional arrays,
// executed with per-operator lineage capture, with every input and
// intermediate result retained ("no overwrite") so any operator can later
// be re-run in tracing mode to answer black-box lineage queries.
package workflow

import (
	"fmt"

	"subzero/internal/array"
	"subzero/internal/grid"
	"subzero/internal/lineage"
)

// Operator is the interface every workflow operator implements — the
// paper's operator methods (Table I): run() plus supported_modes(). An
// operator consumes n input arrays and produces exactly one output array.
//
// Operators additionally implement the optional mapper interfaces below to
// expose mapping, payload, or composite lineage.
type Operator interface {
	// Name identifies the operator type (not the instance).
	Name() string
	// NumInputs returns the number of input arrays.
	NumInputs() int
	// OutShape computes the output shape from the input shapes, so the
	// executor can allocate lineage stores before running.
	OutShape(in []grid.Shape) (grid.Shape, error)
	// Run executes the operator. It must honor rc.Modes: when
	// rc.NeedsPairs() it calls rc.LWrite for every region pair, and when
	// rc.NeedsPayload() it calls rc.LWritePayload for payload pairs.
	Run(rc *RunCtx, ins []*array.Array) (*array.Array, error)
	// SupportedModes lists the lineage modes the operator can generate
	// (cur_modes candidates). Blackbox is implicitly always supported.
	// An operator supporting only Blackbox is treated conservatively:
	// every output cell depends on every input cell.
	SupportedModes() []lineage.Mode
}

// BackwardMapper computes backward lineage purely from coordinates — the
// operator's map_b (paper §V-A2). Implementations append the input cells
// of input inputIdx that contribute to out and return the extended slice.
type BackwardMapper interface {
	MapB(mc *MapCtx, out uint64, inputIdx int, dst []uint64) []uint64
}

// ForwardMapper computes forward lineage purely from coordinates — map_f.
type ForwardMapper interface {
	MapF(mc *MapCtx, in uint64, inputIdx int, dst []uint64) []uint64
}

// Geometry declares an operator's map_b and map_f at once, by rectangles:
// for every rectangle of source cells, the union of the per-cell map over
// it is exactly one rectangle of destination cells. The query executor
// maps a step a rectangle at a time through it, and the per-cell map is
// derived from it (CellMap), so an operator that declares Geometry
// defines no MapB or MapF.
type Geometry interface {
	// Cover writes into dst, the caller's scratch of the destination's
	// rank, the rectangle that the map sends src to: backward from output
	// cells to input inputIdx, else forward from input inputIdx to output
	// cells. It returns false when that union is empty. dst may extend
	// past the destination's shape (callers clip it), and Cover must not
	// write src.
	Cover(mc *MapCtx, backward bool, src grid.Rect, inputIdx int, dst grid.Rect) bool
}

// CellMapFn is the per-cell map shape MapB and MapF share.
type CellMapFn func(mc *MapCtx, cell uint64, inputIdx int, dst []uint64) []uint64

// CellMap returns the operator's per-cell map for a direction: derived from
// its Geometry when it declares one, else its MapB or MapF; nil when it
// has none.
func CellMap(op Operator, backward bool) CellMapFn {
	if g, ok := op.(Geometry); ok {
		return func(mc *MapCtx, cell uint64, inputIdx int, dst []uint64) []uint64 {
			return mc.coverCells(g, backward, cell, inputIdx, dst)
		}
	}
	if m, ok := op.(BackwardMapper); ok && backward {
		return m.MapB
	}
	if m, ok := op.(ForwardMapper); ok && !backward {
		return m.MapF
	}
	return nil
}

// CoverCell is the per-cell map a Geometry declares: it unravels cell into
// src (of the source's rank), writes into dst (of the destination's rank)
// what Cover sends that one cell to, clipped to the destination, and
// reports false when that is empty.
func CoverCell(g Geometry, mc *MapCtx, backward bool, cell uint64, inputIdx int, src grid.Coord, dst grid.Rect) bool {
	mc.SrcSpace(backward, inputIdx).UnravelInto(cell, src)
	return g.Cover(mc, backward, grid.Rect{Lo: src, Hi: src}, inputIdx, dst) &&
		dst.Clamp(mc.DstSpace(backward, inputIdx).Shape())
}

// coverCells appends the cells CoverCell finds for one cell to dst, using
// the context's scratch.
func (mc *MapCtx) coverCells(g Geometry, backward bool, cell uint64, inputIdx int, dst []uint64) []uint64 {
	src, dstSp := mc.inCoords[inputIdx], mc.DstSpace(backward, inputIdx)
	if backward {
		src = mc.outCoord
	}
	r := dstSp.Rank()
	box := grid.Rect{Lo: mc.boxLo[:r], Hi: mc.boxHi[:r]}
	if !CoverCell(g, mc, backward, cell, inputIdx, src, box) {
		return dst
	}
	return box.Cells(dstSp, dst)
}

// PayloadMapper computes backward lineage from a coordinate plus the
// payload stored by LWritePayload — map_p (paper §V-A3).
type PayloadMapper interface {
	MapP(mc *MapCtx, out uint64, payload []byte, inputIdx int, dst []uint64) []uint64
}

// AllToAll marks operators for the entire-array optimization (paper
// §VI-C): when it returns true, the forward lineage of any input cell is
// the entire output array and the backward lineage of any output cell is
// the entire input — the query executor may skip fine-grained tracing.
// The paper relies on "the programmer to manually annotate operators where
// the optimization can be applied"; this interface is that annotation.
type AllToAll interface {
	AllToAll() bool
}

// EntireArraySafe is the second half of the entire-array optimization:
// "Many operators can safely assume that the forward (backward) lineage
// of an entire input (output) array is the entire output (input) array"
// (paper §VI-C). When the query executor's intermediate boolean array is
// completely set, an operator annotated safe for that direction and input
// lets the step skip tracing entirely. The annotation is per direction and
// per input because it does not hold universally — the paper's own
// counterexample is concatenate, where one input's forward lineage is only
// a subset of the output.
type EntireArraySafe interface {
	// EntireArraySafe reports whether a full source set maps to the full
	// destination: for forward steps, full input inputIdx -> entire
	// output; for backward steps, full output -> entire input inputIdx.
	EntireArraySafe(forward bool, inputIdx int) bool
}

// MapCtx carries the array geometry mapping functions need: output and
// input spaces plus scratch for coordinate conversion. The scratch makes
// a MapCtx unsafe for concurrent use by per-cell and payload maps —
// callers that run them in parallel (the query executor serving batched
// queries) work on a Clone, which shares the immutable geometry but owns
// its scratch. Cover reads the geometry alone.
type MapCtx struct {
	OutSpace *grid.Space
	InSpaces []*grid.Space

	outCoord grid.Coord
	inCoords []grid.Coord
	// boxLo and boxHi hold the corners of the derived per-cell map's
	// rectangle, at the largest rank of the spaces.
	boxLo, boxHi grid.Coord
}

// NewMapCtx builds a MapCtx for the given geometry.
func NewMapCtx(outSpace *grid.Space, inSpaces []*grid.Space) *MapCtx {
	n, maxRank := outSpace.Rank(), outSpace.Rank()
	for _, sp := range inSpaces {
		n, maxRank = n+sp.Rank(), max(maxRank, sp.Rank())
	}
	// One slice holds every coordinate and the box corners.
	scratch := make([]int, n+2*maxRank)
	take := func(k int) []int {
		s := scratch[:k:k]
		scratch = scratch[k:]
		return s
	}
	mc := &MapCtx{
		OutSpace: outSpace,
		InSpaces: inSpaces,
		outCoord: take(outSpace.Rank()),
		inCoords: make([]grid.Coord, len(inSpaces)),
	}
	for i, sp := range inSpaces {
		mc.inCoords[i] = take(sp.Rank())
	}
	mc.boxLo, mc.boxHi = take(maxRank), take(maxRank)
	return mc
}

// Clone returns a MapCtx over the same geometry with private scratch
// buffers, safe to use concurrently with the original.
func (mc *MapCtx) Clone() *MapCtx { return NewMapCtx(mc.OutSpace, mc.InSpaces) }

// SrcSpace returns the space a map's source cells live in: the output
// backward, else input inputIdx.
func (mc *MapCtx) SrcSpace(backward bool, inputIdx int) *grid.Space {
	if backward {
		return mc.OutSpace
	}
	return mc.InSpaces[inputIdx]
}

// DstSpace returns the space a map's destination cells live in: input
// inputIdx backward, else the output.
func (mc *MapCtx) DstSpace(backward bool, inputIdx int) *grid.Space {
	if backward {
		return mc.InSpaces[inputIdx]
	}
	return mc.OutSpace
}

// OutCoord unravels an output cell into the context's scratch coordinate.
func (mc *MapCtx) OutCoord(idx uint64) grid.Coord {
	mc.OutSpace.UnravelInto(idx, mc.outCoord)
	return mc.outCoord
}

// InCoord unravels a cell of input i into the context's scratch coordinate.
func (mc *MapCtx) InCoord(i int, idx uint64) grid.Coord {
	mc.InSpaces[i].UnravelInto(idx, mc.inCoords[i])
	return mc.inCoords[i]
}

// RunCtx is the execution context handed to Operator.Run: it carries the
// cur_modes set and the lwrite API bound to this operator instance's
// lineage stores (or the tracing sink during re-execution).
type RunCtx struct {
	modes  lineage.ModeSet
	writer *lineage.Writer
}

// NewRunCtx builds a run context. writer may be nil when no lineage is
// requested (pure Blackbox execution).
func NewRunCtx(modes lineage.ModeSet, writer *lineage.Writer) *RunCtx {
	return &RunCtx{modes: modes, writer: writer}
}

// Modes returns the cur_modes set for this execution.
func (rc *RunCtx) Modes() lineage.ModeSet { return rc.modes }

// NeedsPairs reports whether the operator must emit full region pairs.
func (rc *RunCtx) NeedsPairs() bool { return rc.modes.NeedsPairs() }

// NeedsPayload reports whether the operator must emit payload pairs.
func (rc *RunCtx) NeedsPayload() bool { return rc.modes.NeedsPayload() }

// LWrite records a full region pair; a no-op without a writer.
func (rc *RunCtx) LWrite(out []uint64, ins ...[]uint64) error {
	if rc.writer == nil {
		return nil
	}
	return rc.writer.LWrite(out, ins...)
}

// LWritePayload records a payload pair; a no-op without a writer.
func (rc *RunCtx) LWritePayload(out []uint64, payload []byte) error {
	if rc.writer == nil {
		return nil
	}
	return rc.writer.LWritePayload(out, payload)
}

// Meta provides the boilerplate half of Operator for embedding: name,
// input count, and supported modes.
type Meta struct {
	OpName string
	NIn    int
	Modes  []lineage.Mode
}

// Name implements Operator.
func (m Meta) Name() string { return m.OpName }

// NumInputs implements Operator.
func (m Meta) NumInputs() int { return m.NIn }

// SupportedModes implements Operator.
func (m Meta) SupportedModes() []lineage.Mode { return m.Modes }

// Supports reports whether mode is in the operator's supported set;
// Blackbox is always supported.
func Supports(op Operator, mode lineage.Mode) bool {
	if mode == lineage.Blackbox {
		return true
	}
	for _, m := range op.SupportedModes() {
		if m == mode {
			return true
		}
	}
	return false
}

// IsAllToAll reports whether the operator carries the entire-array
// annotation.
func IsAllToAll(op Operator) bool {
	if a, ok := op.(AllToAll); ok {
		return a.AllToAll()
	}
	return false
}

// IsEntireArraySafe reports whether the operator annotates the full-set
// shortcut for the given direction and input; unannotated operators are
// conservatively unsafe.
func IsEntireArraySafe(op Operator, forward bool, inputIdx int) bool {
	if a, ok := op.(EntireArraySafe); ok {
		return a.EntireArraySafe(forward, inputIdx)
	}
	return false
}

// SameShapeOut is a helper OutShape for operators whose output matches
// input 0; it verifies all inputs that must agree do.
func SameShapeOut(in []grid.Shape) (grid.Shape, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("workflow: operator requires at least one input")
	}
	return in[0].Clone(), nil
}
