package ops

import (
	"fmt"

	"subzero/internal/array"
	"subzero/internal/grid"
	"subzero/internal/workflow"
)

// ---------------------------------------------------------------------
// Transpose (2-D).
// ---------------------------------------------------------------------

// Transpose swaps the two dimensions of a matrix. The paper uses it as the
// canonical mapping operator: map_b((x,y)) = [(y,x)].
type Transpose struct {
	workflow.Meta
}

// NewTranspose builds a 2-D transpose operator.
func NewTranspose() *Transpose {
	return &Transpose{Meta: workflow.Meta{OpName: "transpose", NIn: 1, Modes: mappingModes()}}
}

// OutShape implements Operator.
func (t *Transpose) OutShape(in []grid.Shape) (grid.Shape, error) {
	if len(in) != 1 || len(in[0]) != 2 {
		return nil, fmt.Errorf("ops: transpose requires one 2-D input, got %v", in)
	}
	return grid.Shape{in[0][1], in[0][0]}, nil
}

// Run implements Operator.
func (t *Transpose) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	shape := ins[0].Shape()
	out, err := array.New(t.OpName, grid.Shape{shape[1], shape[0]})
	if err != nil {
		return nil, err
	}
	rows, cols := shape[0], shape[1]
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out.Set2(c, r, ins[0].Get2(r, c))
		}
	}
	if err := emitTracePairs(rc, t, out, ins); err != nil {
		return nil, err
	}
	return out, nil
}

// Cover implements Geometry: the rectangle with its dimensions swapped,
// both ways.
func (t *Transpose) Cover(_ *workflow.MapCtx, _ bool, src grid.Rect, _ int, dst grid.Rect) bool {
	dst.Lo[0], dst.Lo[1] = src.Lo[1], src.Lo[0]
	dst.Hi[0], dst.Hi[1] = src.Hi[1], src.Hi[0]
	return true
}

// ---------------------------------------------------------------------
// Matrix multiply.
// ---------------------------------------------------------------------

// MatMul multiplies an (m×k) matrix by a (k×n) matrix. Output cell (i,j)
// depends on row i of input 0 and column j of input 1 — the paper's
// example of backward lineage including empty cells (§IV).
type MatMul struct {
	workflow.Meta
}

// NewMatMul builds a matrix-multiply operator.
func NewMatMul() *MatMul {
	return &MatMul{Meta: workflow.Meta{OpName: "matmul", NIn: 2, Modes: mappingModes()}}
}

// OutShape implements Operator.
func (m *MatMul) OutShape(in []grid.Shape) (grid.Shape, error) {
	if len(in) != 2 || len(in[0]) != 2 || len(in[1]) != 2 {
		return nil, fmt.Errorf("ops: matmul requires two 2-D inputs")
	}
	if in[0][1] != in[1][0] {
		return nil, fmt.Errorf("ops: matmul inner dimensions %d and %d differ", in[0][1], in[1][0])
	}
	return grid.Shape{in[0][0], in[1][1]}, nil
}

// Run implements Operator.
func (m *MatMul) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	a, b := ins[0], ins[1]
	rows, inner, cols := a.Shape()[0], a.Shape()[1], b.Shape()[1]
	out, err := array.New(m.OpName, grid.Shape{rows, cols})
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			sum := 0.0
			for k := 0; k < inner; k++ {
				sum += a.Get2(i, k) * b.Get2(k, j)
			}
			out.Set2(i, j, sum)
		}
	}
	if err := emitTracePairs(rc, m, out, ins); err != nil {
		return nil, err
	}
	return out, nil
}

// Cover implements Geometry: output rows read the same rows of A and
// output columns the same columns of B, across the inner dimension;
// forward, A's rows feed whole output rows and B's columns whole output
// columns.
func (m *MatMul) Cover(mc *workflow.MapCtx, backward bool, src grid.Rect, inputIdx int, dst grid.Rect) bool {
	return band(mc.DstSpace(backward, inputIdx), inputIdx, src, dst)
}

// ---------------------------------------------------------------------
// 2-D convolution.
// ---------------------------------------------------------------------

// Convolve2D convolves a matrix with a (2r+1)² kernel using clamped
// borders. Output cell (c) depends on the input cells within Chebyshev
// radius r of (c) — the local-neighborhood pattern of the paper's image
// operators.
type Convolve2D struct {
	workflow.Meta
	Kernel [][]float64
	radius int
}

// NewConvolve2D builds a convolution operator; the kernel must be square
// with odd extent.
func NewConvolve2D(name string, kernel [][]float64) (*Convolve2D, error) {
	n := len(kernel)
	if n == 0 || n%2 == 0 {
		return nil, fmt.Errorf("ops: kernel must have odd extent, got %d", n)
	}
	for _, row := range kernel {
		if len(row) != n {
			return nil, fmt.Errorf("ops: kernel must be square")
		}
	}
	return &Convolve2D{
		Meta:   workflow.Meta{OpName: name, NIn: 1, Modes: mappingModes()},
		Kernel: kernel,
		radius: n / 2,
	}, nil
}

// OutShape implements Operator.
func (c *Convolve2D) OutShape(in []grid.Shape) (grid.Shape, error) {
	if len(in) != 1 || len(in[0]) != 2 {
		return nil, fmt.Errorf("ops: convolve requires one 2-D input")
	}
	return in[0].Clone(), nil
}

// Run implements Operator.
func (c *Convolve2D) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	in := ins[0]
	rows, cols := in.Shape()[0], in.Shape()[1]
	out, err := array.New(c.OpName, in.Shape())
	if err != nil {
		return nil, err
	}
	r := c.radius
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			sum := 0.0
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					yy, xx := clamp(y+dy, rows), clamp(x+dx, cols)
					sum += c.Kernel[dy+r][dx+r] * in.Get2(yy, xx)
				}
			}
			out.Set2(y, x, sum)
		}
	}
	if err := emitTracePairs(rc, c, out, ins); err != nil {
		return nil, err
	}
	return out, nil
}

func clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// Cover implements Geometry: the rectangle grown by the radius (the
// caller clips it), both ways by symmetry.
func (c *Convolve2D) Cover(_ *workflow.MapCtx, _ bool, src grid.Rect, _ int, dst grid.Rect) bool {
	for d := range src.Lo {
		dst.Lo[d], dst.Hi[d] = src.Lo[d]-c.radius, src.Hi[d]+c.radius
	}
	return true
}

// EntireArraySafe: transposition is a bijection on cells.
func (t *Transpose) EntireArraySafe(bool, int) bool { return true }

// EntireArraySafe: every A row / B column touches every output row/column.
func (m *MatMul) EntireArraySafe(bool, int) bool { return true }

// EntireArraySafe: every cell participates in some window both ways.
func (c *Convolve2D) EntireArraySafe(bool, int) bool { return true }
