package bitmap

import (
	"math/rand"
	"testing"

	"subzero/internal/grid"
)

func TestSetRunMatchesSetLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sp := space(5, 37) // 185 cells: last word partially used
	for trial := 0; trial < 500; trial++ {
		start := uint64(rng.Intn(200))
		n := uint64(rng.Intn(200))
		a, b := New(sp), New(sp)
		// Pre-populate both with the same noise.
		for i := 0; i < 40; i++ {
			c := uint64(rng.Intn(185))
			a.Set(c)
			b.Set(c)
		}
		var wantAdded uint64
		for c := start; c < start+n; c++ {
			if a.Set(c) {
				wantAdded++
			}
		}
		if got := b.SetRun(start, n); got != wantAdded {
			t.Fatalf("trial %d: SetRun(%d,%d) added %d, want %d", trial, start, n, got, wantAdded)
		}
		if a.Count() != b.Count() {
			t.Fatalf("trial %d: counts diverge %d vs %d", trial, a.Count(), b.Count())
		}
		for c := uint64(0); c < 185; c++ {
			if a.Get(c) != b.Get(c) {
				t.Fatalf("trial %d: cell %d diverges", trial, c)
			}
		}
	}
}

func TestSetRunSpansManyWords(t *testing.T) {
	sp := space(10, 64) // 640 cells
	b := New(sp)
	if added := b.SetRun(3, 600); added != 600 {
		t.Fatalf("added %d, want 600", added)
	}
	if b.Count() != 600 || b.Get(2) || !b.Get(3) || !b.Get(602) || b.Get(603) {
		t.Fatalf("run boundaries wrong: count=%d", b.Count())
	}
	// Overlapping re-set adds only the new cells.
	if added := b.SetRun(0, 10); added != 3 {
		t.Fatalf("overlap added %d, want 3", added)
	}
}

func TestAnyInRange(t *testing.T) {
	sp := space(3, 100)
	b := New(sp)
	b.Set(70)
	b.Set(250)
	cases := []struct {
		start, n uint64
		want     bool
	}{
		{0, 70, false}, {0, 71, true}, {70, 1, true}, {71, 100, false},
		{200, 51, true}, {251, 1000, false}, {0, 1 << 40, true}, {300, 0, false},
		{1 << 40, 10, false},
	}
	for _, c := range cases {
		if got := b.AnyInRange(c.start, c.n); got != c.want {
			t.Fatalf("AnyInRange(%d,%d)=%v, want %v", c.start, c.n, got, c.want)
		}
	}
}

func TestIterateRunsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		sp := space(1+rng.Intn(4), 1+rng.Intn(90))
		b := New(sp)
		for i := 0; i < rng.Intn(60); i++ {
			b.SetRun(uint64(rng.Intn(int(sp.Size()))), uint64(1+rng.Intn(20)))
		}
		rebuilt := New(sp)
		var prevEnd uint64
		first := true
		b.IterateRuns(func(start, length uint64) bool {
			if length == 0 {
				t.Fatalf("trial %d: zero-length run", trial)
			}
			if !first && start <= prevEnd {
				t.Fatalf("trial %d: runs not maximal/ascending: start %d after end %d", trial, start, prevEnd)
			}
			first = false
			prevEnd = start + length
			rebuilt.SetRun(start, length)
			return true
		})
		if rebuilt.Count() != b.Count() {
			t.Fatalf("trial %d: round trip count %d want %d", trial, rebuilt.Count(), b.Count())
		}
		b.Iterate(func(idx uint64) bool {
			if !rebuilt.Get(idx) {
				t.Fatalf("trial %d: cell %d lost", trial, idx)
			}
			return true
		})
	}
}

func TestIterateRunsFullBitmap(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 300} {
		b := New(space(n))
		b.SetAll()
		var runs int
		b.IterateRuns(func(start, length uint64) bool {
			runs++
			if start != 0 || length != uint64(n) {
				t.Fatalf("n=%d: run (%d,%d)", n, start, length)
			}
			return true
		})
		if runs != 1 {
			t.Fatalf("n=%d: %d runs", n, runs)
		}
	}
}

func TestIterateRunsEarlyStop(t *testing.T) {
	b := New(space(200))
	b.Set(3)
	b.Set(100)
	calls := 0
	b.IterateRuns(func(start, length uint64) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early stop ignored: %d calls", calls)
	}
}

// IterateRects must cover exactly the set cells with disjoint rects.
func TestIterateRectsExactCover(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][]int{{64}, {9, 11}, {4, 5, 7}, {1000}, {33, 64}}
	for trial := 0; trial < 200; trial++ {
		dims := shapes[trial%len(shapes)]
		sp := grid.NewSpace(grid.Shape(dims))
		b := New(sp)
		switch trial % 5 {
		case 0:
			for i := 0; i < rng.Intn(50); i++ {
				b.Set(uint64(rng.Intn(int(sp.Size()))))
			}
		case 1:
			b.SetRun(uint64(rng.Intn(int(sp.Size()))), uint64(1+rng.Intn(int(sp.Size()))))
		case 2:
			b.SetAll()
		case 3:
			// Bars: runs repeated down consecutive rows, which grow into
			// tall rectangles, overlapping each other and slab edges.
			rowLen := dims[len(dims)-1]
			rows := int(sp.Size()) / rowLen
			for i := 0; i < 1+rng.Intn(6); i++ {
				r0, c0 := rng.Intn(rows), rng.Intn(rowLen)
				r1, c1 := min(rows-1, r0+rng.Intn(rows)), min(rowLen-1, c0+rng.Intn(4))
				for r := r0; r <= r1; r++ {
					b.SetRun(uint64(r*rowLen+c0), uint64(c1-c0+1))
				}
			}
		case 4:
			// The same scattered row pattern in every row of a band.
			rowLen := dims[len(dims)-1]
			rows := int(sp.Size()) / rowLen
			pattern := rng.Uint64()
			r0 := rng.Intn(rows)
			for r := r0; r < min(rows, r0+1+rng.Intn(rows)); r++ {
				for c := 0; c < rowLen; c++ {
					if pattern>>(c%64)&1 != 0 {
						b.Set(uint64(r*rowLen + c))
					}
				}
			}
		}
		cover := New(sp)
		b.IterateRects(func(r grid.Rect) bool {
			if err := r.Validate(); err != nil {
				t.Fatalf("trial %d: invalid rect %v: %v", trial, r, err)
			}
			if added := cover.SetRect(r); added != r.Area() {
				t.Fatalf("trial %d: rect %v overlaps prior cover (added %d of %d)", trial, r, added, r.Area())
			}
			return true
		})
		if cover.Count() != b.Count() {
			t.Fatalf("trial %d: cover %d cells, want %d", trial, cover.Count(), b.Count())
		}
		b.Iterate(func(idx uint64) bool {
			if !cover.Get(idx) {
				t.Fatalf("trial %d: cell %d uncovered", trial, idx)
			}
			return true
		})
	}
}

// Runs repeated down the rows grow into one rectangle each, within a slab:
// a column is one rectangle, not one per row.
func TestIterateRectsGrowsDownRows(t *testing.T) {
	count := func(b *Bitmap) (n int) {
		b.IterateRects(func(grid.Rect) bool { n++; return true })
		return n
	}
	b := New(space(3660, 30))
	for r := 0; r < 3660; r++ {
		for _, c := range []int{2, 9, 10, 17} {
			b.Set(uint64(r*30 + c))
		}
	}
	if n := count(b); n != 3 {
		t.Fatalf("three columns decomposed into %d rects, want 3", n)
	}
	// A zigzag repeats no run in the next row: one rectangle per row.
	z := New(space(100, 4))
	for r := 0; r < 100; r++ {
		z.Set(uint64(r*4 + 1 + r%2))
	}
	if n := count(z); n != 100 {
		t.Fatalf("zigzag decomposed into %d rects, want 100", n)
	}
	// A rank-3 column crosses slabs of the second-to-last dimension, so
	// it is one rectangle per slab.
	c := New(grid.NewSpace(grid.Shape{4, 5, 6}))
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			c.Set(uint64(i*30 + j*6 + 3))
		}
	}
	if n := count(c); n != 4 {
		t.Fatalf("rank-3 column decomposed into %d rects, want 4", n)
	}
}

// Full rows must merge: a fully-set 2-D bitmap decomposes into one rect.
func TestIterateRectsMergesRows(t *testing.T) {
	sp := space(32, 17)
	b := New(sp)
	b.SetAll()
	var rects int
	b.IterateRects(func(r grid.Rect) bool {
		rects++
		return true
	})
	if rects != 1 {
		t.Fatalf("full 2-D bitmap decomposed into %d rects, want 1", rects)
	}
}

func TestPoolReuseAndRebind(t *testing.T) {
	var p Pool
	big := space(100, 100)
	small := space(10)
	b1 := p.Get(big)
	b1.SetRun(0, 5000)
	p.Put(b1)
	// Same storage comes back rebound to a smaller space, cleared.
	b2 := p.Get(small)
	if b2 != b1 {
		t.Fatal("pool did not reuse storage")
	}
	if b2.Count() != 0 || b2.Space() != small || b2.Get(3) {
		t.Fatalf("recycled bitmap not reset: count=%d", b2.Count())
	}
	b2.SetAll()
	if b2.Count() != 10 {
		t.Fatalf("rebound bitmap wrong size: %d", b2.Count())
	}

	// A pooled bitmap whose storage is genuinely too small must not be
	// returned for a bigger space.
	var p2 Pool
	s := p2.Get(small)
	p2.Put(s)
	b3 := p2.Get(big)
	if b3 == s {
		t.Fatal("pool returned undersized storage")
	}
}

// The word-parallel ops must not allocate: they are the per-step inner
// loop of every lineage lookup.
func TestWordParallelOpsAllocFree(t *testing.T) {
	a := New(space(1000, 1000))
	if n := testing.AllocsPerRun(10, func() { a.SetRun(0, 900000) }); n > 0 {
		t.Fatalf("SetRun allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(10, func() { a.AnyInRange(5, 999000) }); n > 0 {
		t.Fatalf("AnyInRange allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		a.IterateRuns(func(_, _ uint64) bool { return true })
	}); n > 0 {
		t.Fatalf("IterateRuns allocates %.1f/op", n)
	}
	// The rect-mapped query step: a rectangle per row of a column-shaped
	// set, each set back through a scratch rectangle.
	b := New(space(1000, 1000))
	for row := uint64(0); row < 1000; row += 3 {
		b.Set(row*1000 + 7)
	}
	dst := a.ScratchRect()
	if n := testing.AllocsPerRun(10, func() {
		b.IterateRects(func(r grid.Rect) bool {
			copy(dst.Lo, r.Lo)
			copy(dst.Hi, r.Hi)
			dst.Hi[1] += 2
			a.SetRect(dst)
			return true
		})
	}); n > 0 {
		t.Fatalf("IterateRects into SetRect allocates %.1f/op", n)
	}
}

// SetRect against a per-cell loop at ranks 1–3, with rectangles that
// overhang the shape on either side, over pre-set noise.
func TestSetRectMatchesSetLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := [][]int{{70}, {9, 11}, {6, 64}, {4, 5, 7}, {3, 2, 64}}
	for trial := 0; trial < 600; trial++ {
		dims := shapes[trial%len(shapes)]
		sp := grid.NewSpace(grid.Shape(dims))
		a, b := New(sp), New(sp)
		for i := 0; i < rng.Intn(30); i++ {
			c := uint64(rng.Intn(int(sp.Size())))
			a.Set(c)
			b.Set(c)
		}
		r := grid.Rect{Lo: make(grid.Coord, len(dims)), Hi: make(grid.Coord, len(dims))}
		for d, n := range dims {
			r.Lo[d] = rng.Intn(n+4) - 2
			r.Hi[d] = r.Lo[d] + rng.Intn(n+2) - 1
		}
		var want uint64
		coord := make(grid.Coord, len(dims))
		for c := uint64(0); c < sp.Size(); c++ {
			if sp.UnravelInto(c, coord); r.Contains(coord) && a.Set(c) {
				want++
			}
		}
		if got := b.SetRect(r); got != want || b.Count() != a.Count() {
			t.Fatalf("trial %d: SetRect(%v) over %v added %d (count %d), want %d (count %d)",
				trial, r, dims, got, b.Count(), want, a.Count())
		}
	}
}

func TestComplementIn(t *testing.T) {
	sp := space(7, 19)
	a, b := New(sp), New(sp)
	a.SetRun(3, 100)
	b.SetRun(50, 80)
	b.Set(1)
	b.ComplementIn(a)
	want := New(sp)
	want.SetRun(3, 47)
	if b.Count() != want.Count() {
		t.Fatalf("ComplementIn left %d cells, want %d", b.Count(), want.Count())
	}
	want.Iterate(func(idx uint64) bool {
		if !b.Get(idx) {
			t.Fatalf("ComplementIn lost cell %d", idx)
		}
		return true
	})
}

func BenchmarkSetRun(b *testing.B) {
	sp := space(1000, 1000)
	bm := New(sp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bm.Clear()
		bm.SetRun(123, 999000)
	}
}

func BenchmarkIterateRuns(b *testing.B) {
	sp := space(1000, 1000)
	bm := New(sp)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		bm.SetRun(uint64(rng.Intn(1000000)), uint64(1+rng.Intn(50)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total uint64
		bm.IterateRuns(func(_, n uint64) bool { total += n; return true })
	}
}
