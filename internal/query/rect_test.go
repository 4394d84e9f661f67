package query

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"subzero/internal/bitmap"
	"subzero/internal/grid"
	"subzero/internal/lineage"
	"subzero/internal/ops"
	"subzero/internal/workflow"
)

func never() bool { return false }

// countingGeometry counts the rectangles a step hands an operator.
type countingGeometry struct {
	workflow.Geometry
	calls int
}

func (c *countingGeometry) Cover(mc *workflow.MapCtx, backward bool, src grid.Rect, inputIdx int, dst grid.Rect) bool {
	c.calls++
	return c.Geometry.Cover(mc, backward, src, inputIdx, dst)
}

// A rect-mapped step sets what the per-cell map derived from the same
// geometry sets, on sparse, banded and full query sets.
func TestRectStepMatchesCellStep(t *testing.T) {
	conv, err := ops.NewConvolve2D("conv", [][]float64{{0, 1, 0}, {1, 1, 1}, {0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		op  workflow.Operator
		ins []grid.Shape
	}{
		{conv, []grid.Shape{{9, 70}}},
		{ops.NewTranspose(), []grid.Shape{{6, 130}}},
		{ops.NewMatMul(), []grid.Shape{{5, 7}, {7, 66}}},
		{ops.NewColCenter("c", nil), []grid.Shape{{8, 65}, {1, 65}}},
		{ops.NewConcat(1), []grid.Shape{{4, 30}, {4, 50}}},
	} {
		out, err := tc.op.OutShape(tc.ins)
		if err != nil {
			t.Fatal(err)
		}
		inSpaces := make([]*grid.Space, len(tc.ins))
		for i, s := range tc.ins {
			inSpaces[i] = grid.NewSpace(s)
		}
		mc := workflow.NewMapCtx(grid.NewSpace(out), inSpaces)
		g := tc.op.(workflow.Geometry)
		for trial := 0; trial < 30; trial++ {
			for _, backward := range []bool{true, false} {
				for i := range tc.ins {
					src := bitmap.New(mc.SrcSpace(backward, i))
					switch trial % 3 {
					case 0:
						for k := 0; k < 1+rng.Intn(40); k++ {
							src.Set(uint64(rng.Intn(int(src.Size()))))
						}
					case 1:
						src.SetRun(uint64(rng.Intn(int(src.Size()))), uint64(1+rng.Intn(200)))
					default:
						src.SetAll()
					}
					byRect, byCell := bitmap.New(mc.DstSpace(backward, i)), bitmap.New(mc.DstSpace(backward, i))
					if err := mapRects(g, mc, backward, i, src, byRect, never); err != nil {
						t.Fatal(err)
					}
					if err := mapCells(workflow.CellMap(tc.op, backward), mc, i, src, byCell, never, nil); err != nil {
						t.Fatal(err)
					}
					if byRect.Count() != byCell.Count() {
						t.Fatalf("%s backward=%v input %d: by rect %d cells, by cell %d", tc.op.Name(), backward, i, byRect.Count(), byCell.Count())
					}
					byCell.Iterate(func(c uint64) bool {
						if !byRect.Get(c) {
							t.Fatalf("%s backward=%v input %d: cell %d missing by rect", tc.op.Name(), backward, i, c)
						}
						return true
					})
				}
			}
		}
	}
}

// A rect-mapped Convolve2D step allocates nothing: its rectangles live in
// the step bitmaps' scratch, and the callback stays on the stack.
func TestRectMappedStepAllocFree(t *testing.T) {
	conv, err := ops.NewConvolve2D("conv", [][]float64{{0, 1, 0}, {1, 1, 1}, {0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	sp := grid.NewSpace(grid.Shape{128, 200})
	mc := workflow.NewMapCtx(sp, []*grid.Space{sp})
	cur, next := bitmap.New(sp), bitmap.New(sp)
	for row := uint64(0); row < 128; row += 2 {
		cur.SetRun(row*200+17, 3) // one rectangle per row: 64, so the poll runs
	}
	allocs := testing.AllocsPerRun(50, func() {
		next.Clear()
		if err := mapRects(conv, mc, true, 0, cur, next, never); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("rect-mapped convolution step allocates %.1f/op, want 0", allocs)
	}
	if want := uint64(128 * 5); next.Count() != want {
		t.Fatalf("step set %d cells, want %d", next.Count(), want)
	}
}

// zigzagStep is a backward Transpose step whose query set is a column
// that zigzags between two output columns: no row repeats the run of the
// row above, so IterateRects hands the step one rectangle per row.
func zigzagStep(rows int) (*countingGeometry, *workflow.MapCtx, *bitmap.Bitmap, *bitmap.Bitmap) {
	out := grid.NewSpace(grid.Shape{rows, 4})
	in := grid.NewSpace(grid.Shape{4, rows})
	cur := bitmap.New(out)
	for r := 0; r < rows; r++ {
		cur.Set(out.Ravel(grid.Coord{r, 1 + r%2}))
	}
	return &countingGeometry{Geometry: ops.NewTranspose()}, workflow.NewMapCtx(out, []*grid.Space{in}), cur, bitmap.New(in)
}

// A cancelled context aborts a rect-mapped step at its next poll, with
// ErrAborted, which is what sends the executor to its fallback.
func TestRectStepAbortsOnCancel(t *testing.T) {
	g, mc, cur, next := zigzagStep(500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := mapRects(g, mc, true, 0, cur, next, func() bool { return ctx.Err() != nil })
	if !errors.Is(err, lineage.ErrAborted) {
		t.Fatalf("cancelled step returned %v, want ErrAborted", err)
	}
	if g.calls != pollEvery-1 {
		t.Fatalf("cancelled step mapped %d rectangles, want %d before the first poll", g.calls, pollEvery-1)
	}
}

// A step whose destination saturates closes early, without error, at the
// next poll.
func TestRectStepClosesEarlyWhenFull(t *testing.T) {
	g, mc, cur, next := zigzagStep(500)
	// Leave unset only the cells the first pollEvery-1 rectangles reach:
	// row r of the query maps to input cell (1+r%2, r).
	reached := bitmap.New(next.Space())
	for r := 0; r < pollEvery-1; r++ {
		reached.Set(next.Space().Ravel(grid.Coord{1 + r%2, r}))
	}
	for c := uint64(0); c < next.Size(); c++ {
		if !reached.Get(c) {
			next.Set(c)
		}
	}
	if err := mapRects(g, mc, true, 0, cur, next, func() bool {
		t.Fatal("a saturated step polled abort")
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !next.Full() || g.calls != pollEvery-1 {
		t.Fatalf("full=%v after %d rectangles, want full after %d", next.Full(), g.calls, pollEvery-1)
	}
}
