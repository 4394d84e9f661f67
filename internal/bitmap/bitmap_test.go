package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"subzero/internal/grid"
)

func space(dims ...int) *grid.Space { return grid.NewSpace(grid.Shape(dims)) }

func TestSetGetCount(t *testing.T) {
	b := New(space(10, 10))
	if !b.Empty() || b.Count() != 0 {
		t.Fatal("new bitmap not empty")
	}
	if !b.Set(5) {
		t.Fatal("first Set returned false")
	}
	if b.Set(5) {
		t.Fatal("duplicate Set returned true")
	}
	if !b.Get(5) || b.Get(6) {
		t.Fatal("Get wrong")
	}
	if b.Count() != 1 {
		t.Fatalf("Count=%d", b.Count())
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	b := New(space(4, 4))
	if b.Set(16) || b.Set(1<<40) {
		t.Fatal("out-of-range Set succeeded")
	}
	if b.Get(16) {
		t.Fatal("out-of-range Get true")
	}
	if b.Count() != 0 {
		t.Fatal("out-of-range Set changed count")
	}
}

func TestSetAllAndFull(t *testing.T) {
	for _, dims := range [][]int{{3, 3}, {8, 8}, {1, 65}, {127}, {64}, {2, 2, 2}} {
		b := New(space(dims...))
		b.SetAll()
		if !b.Full() {
			t.Fatalf("shape %v: SetAll not Full (count=%d size=%d)", dims, b.Count(), b.Size())
		}
		// Every cell individually set; none beyond.
		for i := uint64(0); i < b.Size(); i++ {
			if !b.Get(i) {
				t.Fatalf("shape %v: cell %d unset after SetAll", dims, i)
			}
		}
		got := b.Cells(nil)
		if uint64(len(got)) != b.Size() {
			t.Fatalf("shape %v: Cells returned %d of %d", dims, len(got), b.Size())
		}
	}
}

func TestSetRect(t *testing.T) {
	sp := space(6, 6)
	b := New(sp)
	added := b.SetRect(grid.Rect{Lo: grid.Coord{1, 1}, Hi: grid.Coord{3, 2}})
	if added != 6 || b.Count() != 6 {
		t.Fatalf("SetRect added=%d count=%d", added, b.Count())
	}
	// Overlapping rect adds only the new cells.
	added = b.SetRect(grid.Rect{Lo: grid.Coord{3, 2}, Hi: grid.Coord{4, 3}})
	if added != 3 {
		t.Fatalf("overlapping SetRect added=%d, want 3", added)
	}
	// Out-of-bounds rect is clipped.
	added = b.SetRect(grid.Rect{Lo: grid.Coord{5, 5}, Hi: grid.Coord{9, 9}})
	if added != 1 {
		t.Fatalf("clipped SetRect added=%d, want 1", added)
	}
	// Fully outside: nothing.
	if b.SetRect(grid.Rect{Lo: grid.Coord{7, 7}, Hi: grid.Coord{9, 9}}) != 0 {
		t.Fatal("fully-out rect set cells")
	}
}

func TestIntersectsRect(t *testing.T) {
	sp := space(8, 8)
	b := New(sp)
	b.Set(sp.Ravel(grid.Coord{4, 5}))
	if !b.IntersectsRect(grid.Rect{Lo: grid.Coord{3, 3}, Hi: grid.Coord{5, 6}}) {
		t.Fatal("should intersect")
	}
	if b.IntersectsRect(grid.Rect{Lo: grid.Coord{0, 0}, Hi: grid.Coord{3, 3}}) {
		t.Fatal("should not intersect")
	}
	// Rows past the edge of an inner dimension must not wrap into the
	// next slab, whose first rows follow them in linear order.
	sp3 := space(3, 5, 67)
	b3 := New(sp3)
	b3.Set(sp3.Ravel(grid.Coord{1, 0, 10}))
	b3.Set(sp3.Ravel(grid.Coord{0, 4, 67 - 1}))
	if b3.IntersectsRect(grid.Rect{Lo: grid.Coord{0, 3, 5}, Hi: grid.Coord{0, 6, 20}}) {
		t.Fatal("rect wrapped into the next slab")
	}
	if b3.IntersectsRect(grid.Rect{Lo: grid.Coord{1, 0, -70}, Hi: grid.Coord{1, 0, 9}}) {
		t.Fatal("rect wrapped into the previous row")
	}
}

// randomBitmaps returns bitmaps over sp from empty to full, with random
// densities and a single set cell in between.
func randomBitmaps(rng *rand.Rand, sp *grid.Space) []*Bitmap {
	var out []*Bitmap
	for _, density := range []float64{0, 0.001, 0.02, 0.3, 1} {
		b := New(sp)
		for i := uint64(0); i < sp.Size(); i++ {
			if rng.Float64() < density {
				b.Set(i)
			}
		}
		out = append(out, b)
	}
	one := New(sp)
	one.Set(uint64(rng.Int63n(int64(sp.Size()))))
	return append(out, one)
}

// randomRect draws a rectangle of the given rank that may stick out of
// shape on any side, lie wholly outside it, or be inverted.
func randomRect(rng *rand.Rand, shape grid.Shape, rank int) grid.Rect {
	r := grid.Rect{Lo: make(grid.Coord, rank), Hi: make(grid.Coord, rank)}
	for d := range r.Lo {
		n := 4
		if d < len(shape) {
			n = shape[d]
		}
		r.Lo[d] = rng.Intn(n+6) - 3
		r.Hi[d] = r.Lo[d] + rng.Intn(n/2+3) - 1
	}
	return r
}

// IntersectsRect must agree with a per-cell scan of the space on every
// rank, including rectangles clipped by or outside the space, inverted
// ones and ones of another rank, and must not allocate.
func TestIntersectsRectMatchesCells(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sp := range []*grid.Space{space(70), space(200), space(9, 70), space(3, 5, 67)} {
		shape := sp.Shape()
		coord := make(grid.Coord, sp.Rank())
		for _, b := range randomBitmaps(rng, sp) {
			var rects []grid.Rect
			for i := 0; i < 300; i++ {
				rank := sp.Rank()
				if i%50 == 0 {
					rank++ // another rank holds no cell
				}
				r := randomRect(rng, shape, rank)
				want := false
				for c := uint64(0); c < sp.Size() && !want; c++ {
					sp.UnravelInto(c, coord)
					want = b.Get(c) && r.Contains(coord)
				}
				if got := b.IntersectsRect(r); got != want {
					t.Fatalf("shape %v, %d set, rect %v: IntersectsRect = %v, want %v", shape, b.Count(), r, got, want)
				}
				rects = append(rects, r)
			}
			if allocs := testing.AllocsPerRun(10, func() {
				for _, r := range rects {
					b.IntersectsRect(r)
				}
			}); allocs != 0 {
				t.Fatalf("IntersectsRect allocates %.1f per %d rects, want 0", allocs, len(rects))
			}
		}
	}
}

// Bounds must be the bounding box of the set cells on every rank, false
// for an empty bitmap, and allocation-free.
func TestBoundsMatchesCells(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, sp := range []*grid.Space{space(70), space(9, 70), space(64, 64), space(3, 5, 67)} {
		rank := sp.Rank()
		lo, hi := make(grid.Coord, rank), make(grid.Coord, rank)
		coord := make(grid.Coord, rank)
		for _, b := range randomBitmaps(rng, sp) {
			// A lone run across row boundaries, too.
			run := New(sp)
			start := uint64(rng.Int63n(int64(sp.Size())))
			run.SetRun(start, uint64(rng.Int63n(int64(sp.Size()-start)))+1)
			for _, b := range []*Bitmap{b, run} {
				wantLo, wantHi := make(grid.Coord, rank), make(grid.Coord, rank)
				for d := range wantLo {
					wantLo[d], wantHi[d] = sp.Shape()[d], -1
				}
				b.Iterate(func(c uint64) bool {
					sp.UnravelInto(c, coord)
					for d := range coord {
						wantLo[d], wantHi[d] = min(wantLo[d], coord[d]), max(wantHi[d], coord[d])
					}
					return true
				})
				ok := b.Bounds(lo, hi)
				if ok != !b.Empty() {
					t.Fatalf("shape %v, %d set: Bounds ok = %v", sp.Shape(), b.Count(), ok)
				}
				if ok && (!lo.Equal(wantLo) || !hi.Equal(wantHi)) {
					t.Fatalf("shape %v, %d set: Bounds = %v..%v, want %v..%v", sp.Shape(), b.Count(), lo, hi, wantLo, wantHi)
				}
				if allocs := testing.AllocsPerRun(10, func() { b.Bounds(lo, hi) }); allocs != 0 {
					t.Fatalf("Bounds allocates %.1f, want 0", allocs)
				}
			}
		}
	}
}

func TestIterateOrderAndEarlyStop(t *testing.T) {
	b := New(space(100))
	for _, v := range []uint64{90, 3, 64, 63} {
		b.Set(v)
	}
	var got []uint64
	b.Iterate(func(idx uint64) bool {
		got = append(got, idx)
		return len(got) < 3
	})
	want := []uint64{3, 63, 64}
	if len(got) != 3 {
		t.Fatalf("early stop failed: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Iterate order %v, want %v", got, want)
		}
	}
}

func TestClear(t *testing.T) {
	b := New(space(10))
	b.SetAll()
	b.Clear()
	if !b.Empty() || b.Get(3) {
		t.Fatal("Clear did not empty bitmap")
	}
}

func TestFromCellsMatchesSetCells(t *testing.T) {
	sp := space(16, 16)
	cells := []uint64{0, 17, 255, 100}
	b := FromCells(sp, cells)
	if b.Count() != 4 {
		t.Fatalf("count=%d", b.Count())
	}
	for _, c := range cells {
		if !b.Get(c) {
			t.Fatalf("cell %d missing", c)
		}
	}
}

// Property: bitmap behaves exactly like a map[uint64]bool reference set.
func TestQuickBitmapVsReference(t *testing.T) {
	f := func(ops []uint16) bool {
		sp := space(40, 40)
		b := New(sp)
		ref := map[uint64]bool{}
		for _, op := range ops {
			idx := uint64(op) % sp.Size()
			b.Set(idx)
			ref[idx] = true
		}
		if b.Count() != uint64(len(ref)) {
			return false
		}
		ok := true
		b.Iterate(func(idx uint64) bool {
			if !ref[idx] {
				ok = false
			}
			delete(ref, idx)
			return true
		})
		return ok && len(ref) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSetRectMatchesCells(t *testing.T) {
	f := func(lo0, lo1, e0, e1 uint8) bool {
		sp := space(30, 30)
		r := grid.Rect{
			Lo: grid.Coord{int(lo0 % 25), int(lo1 % 25)},
			Hi: grid.Coord{int(lo0%25) + int(e0%10), int(lo1%25) + int(e1%10)},
		}
		viaRect := New(sp)
		viaRect.SetRect(r)
		clipped, ok := r.Clip(sp.Shape())
		if !ok {
			return viaRect.Empty()
		}
		viaCells := FromCells(sp, clipped.Cells(sp, nil))
		if viaRect.Count() != viaCells.Count() {
			return false
		}
		match := true
		viaRect.Iterate(func(idx uint64) bool {
			if !viaCells.Get(idx) {
				match = false
			}
			return match
		})
		return match
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetCells(b *testing.B) {
	sp := space(512, 2000)
	cells := make([]uint64, 10000)
	rng := rand.New(rand.NewSource(1))
	for i := range cells {
		cells[i] = uint64(rng.Int63n(int64(sp.Size())))
	}
	bm := New(sp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bm.Clear()
		bm.SetCells(cells)
	}
}

func BenchmarkIterate(b *testing.B) {
	sp := space(512, 2000)
	bm := New(sp)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		bm.Set(uint64(rng.Int63n(int64(sp.Size()))))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		bm.Iterate(func(uint64) bool { n++; return true })
	}
}
