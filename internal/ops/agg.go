package ops

import (
	"fmt"
	"math"

	"subzero/internal/array"
	"subzero/internal/grid"
	"subzero/internal/workflow"
)

// ---------------------------------------------------------------------
// Whole-array aggregates (all-to-all operators).
// ---------------------------------------------------------------------

// Reduce collapses the whole input to a 1x1 array (mean, sum, max, std).
// Every output depends on every input, so it carries the entire-array
// annotation (paper §VI-C) — the FQ0/FQ0Slow experiment toggles whether
// the query executor exploits it.
type Reduce struct {
	workflow.Meta
	Fn func(data []float64) float64
}

// NewReduce builds a whole-array aggregate.
func NewReduce(name string, fn func([]float64) float64) *Reduce {
	return &Reduce{Meta: workflow.Meta{OpName: name, NIn: 1, Modes: mappingModes()}, Fn: fn}
}

// NewMeanAll returns a mean aggregate (the astronomy benchmark's
// mean-brightness operator).
func NewMeanAll() *Reduce {
	return NewReduce("mean-all", func(data []float64) float64 {
		sum := 0.0
		for _, v := range data {
			sum += v
		}
		return sum / float64(len(data))
	})
}

// NewStdAll returns a standard-deviation aggregate.
func NewStdAll() *Reduce {
	return NewReduce("std-all", func(data []float64) float64 {
		mean, n := 0.0, float64(len(data))
		for _, v := range data {
			mean += v
		}
		mean /= n
		ss := 0.0
		for _, v := range data {
			ss += (v - mean) * (v - mean)
		}
		return math.Sqrt(ss / n)
	})
}

// NewMaxAll returns a max aggregate.
func NewMaxAll() *Reduce {
	return NewReduce("max-all", func(data []float64) float64 {
		best := math.Inf(-1)
		for _, v := range data {
			if v > best {
				best = v
			}
		}
		return best
	})
}

// OutShape implements Operator.
func (r *Reduce) OutShape(in []grid.Shape) (grid.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("ops: %s requires 1 input", r.OpName)
	}
	return grid.Shape{1, 1}, nil
}

// Run implements Operator.
func (r *Reduce) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	out, err := array.New(r.OpName, grid.Shape{1, 1})
	if err != nil {
		return nil, err
	}
	out.Set(0, r.Fn(ins[0].Data()))
	if err := emitTracePairs(rc, r, out, ins); err != nil {
		return nil, err
	}
	return out, nil
}

// Cover implements Geometry: the single output depends on everything, and
// every input feeds it.
func (r *Reduce) Cover(mc *workflow.MapCtx, backward bool, _ grid.Rect, _ int, dst grid.Rect) bool {
	return whole(mc.DstSpace(backward, 0), dst)
}

// AllToAll implements the entire-array annotation.
func (r *Reduce) AllToAll() bool { return true }

// ---------------------------------------------------------------------
// Per-column aggregates and normalization (2-D).
// ---------------------------------------------------------------------

// ColReduce collapses each column of an (m×n) matrix to one value,
// producing (1×n). Output column j depends on exactly input column j — a
// mapping operator with column-level locality, used by the genomics
// workflow's per-feature statistics.
type ColReduce struct {
	workflow.Meta
	Fn func(col []float64) float64
}

// NewColReduce builds a per-column aggregate.
func NewColReduce(name string, fn func([]float64) float64) *ColReduce {
	return &ColReduce{Meta: workflow.Meta{OpName: name, NIn: 1, Modes: mappingModes()}, Fn: fn}
}

// NewColMean returns a per-column mean.
func NewColMean() *ColReduce {
	return NewColReduce("col-mean", func(col []float64) float64 {
		sum := 0.0
		for _, v := range col {
			sum += v
		}
		return sum / float64(len(col))
	})
}

// OutShape implements Operator.
func (c *ColReduce) OutShape(in []grid.Shape) (grid.Shape, error) {
	if len(in) != 1 || len(in[0]) != 2 {
		return nil, fmt.Errorf("ops: %s requires one 2-D input", c.OpName)
	}
	return grid.Shape{1, in[0][1]}, nil
}

// Run implements Operator.
func (c *ColReduce) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	rows, cols := ins[0].Shape()[0], ins[0].Shape()[1]
	out, err := array.New(c.OpName, grid.Shape{1, cols})
	if err != nil {
		return nil, err
	}
	col := make([]float64, rows)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			col[i] = ins[0].Get2(i, j)
		}
		out.Set2(0, j, c.Fn(col))
	}
	if err := emitTracePairs(rc, c, out, ins); err != nil {
		return nil, err
	}
	return out, nil
}

// Cover implements Geometry: output (0,j) depends on column j, and input
// (i,j) feeds output (0,j).
func (c *ColReduce) Cover(mc *workflow.MapCtx, backward bool, src grid.Rect, _ int, dst grid.Rect) bool {
	return band(mc.DstSpace(backward, 0), 1, src, dst)
}

// ColCenter subtracts a per-column statistic (input 1, shaped 1×n) from
// every cell of input 0 (m×n): out(i,j) = in0(i,j) - in1(0,j). Used to
// z-score feature matrices.
type ColCenter struct {
	workflow.Meta
	Fn func(x, stat float64) float64
}

// NewColCenter builds a column-broadcast combine.
func NewColCenter(name string, fn func(x, stat float64) float64) *ColCenter {
	return &ColCenter{Meta: workflow.Meta{OpName: name, NIn: 2, Modes: mappingModes()}, Fn: fn}
}

// OutShape implements Operator.
func (c *ColCenter) OutShape(in []grid.Shape) (grid.Shape, error) {
	if len(in) != 2 || len(in[0]) != 2 || len(in[1]) != 2 {
		return nil, fmt.Errorf("ops: %s requires two 2-D inputs", c.OpName)
	}
	if in[1][0] != 1 || in[1][1] != in[0][1] {
		return nil, fmt.Errorf("ops: %s input 1 must be 1x%d, got %v", c.OpName, in[0][1], in[1])
	}
	return in[0].Clone(), nil
}

// Run implements Operator.
func (c *ColCenter) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	rows, cols := ins[0].Shape()[0], ins[0].Shape()[1]
	out, err := array.New(c.OpName, ins[0].Shape())
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out.Set2(i, j, c.Fn(ins[0].Get2(i, j), ins[1].Get2(0, j)))
		}
	}
	if err := emitTracePairs(rc, c, out, ins); err != nil {
		return nil, err
	}
	return out, nil
}

// Cover implements Geometry: the same cells of input 0; output (i,j)
// reads statistic (0,j), which feeds all of column j.
func (c *ColCenter) Cover(mc *workflow.MapCtx, backward bool, src grid.Rect, inputIdx int, dst grid.Rect) bool {
	if inputIdx == 0 {
		return identity(src, dst)
	}
	return band(mc.DstSpace(backward, 1), 1, src, dst)
}

// EntireArraySafe: the aggregate is all-to-all, trivially full-preserving.
func (r *Reduce) EntireArraySafe(bool, int) bool { return true }

// EntireArraySafe: every column maps onto its aggregate and back.
func (c *ColReduce) EntireArraySafe(bool, int) bool { return true }

// EntireArraySafe: cell-wise with per-column statistics; full either way.
func (c *ColCenter) EntireArraySafe(bool, int) bool { return true }
