package grid

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestShapeValidate(t *testing.T) {
	cases := []struct {
		name  string
		shape Shape
		ok    bool
	}{
		{"1d", Shape{5}, true},
		{"2d", Shape{512, 2000}, true},
		{"3d", Shape{4, 5, 6}, true},
		{"empty", Shape{}, false},
		{"zero dim", Shape{5, 0}, false},
		{"negative dim", Shape{-1, 3}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.shape.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate(%v) err=%v, want ok=%v", tc.shape, err, tc.ok)
			}
		})
	}
}

func TestShapeSizeAndEqual(t *testing.T) {
	s := Shape{3, 4, 5}
	if got := s.Size(); got != 60 {
		t.Fatalf("Size=%d, want 60", got)
	}
	if !s.Equal(Shape{3, 4, 5}) {
		t.Fatal("Equal should match identical shape")
	}
	if s.Equal(Shape{3, 4}) || s.Equal(Shape{3, 4, 6}) {
		t.Fatal("Equal matched different shape")
	}
	c := s.Clone()
	c[0] = 99
	if s[0] != 3 {
		t.Fatal("Clone aliases original")
	}
}

func TestRavelUnravelRoundTrip(t *testing.T) {
	sp := NewSpace(Shape{3, 7, 11})
	for idx := uint64(0); idx < sp.Size(); idx++ {
		c := sp.Unravel(idx)
		if !sp.Shape().Contains(c) {
			t.Fatalf("Unravel(%d)=%v out of bounds", idx, c)
		}
		if back := sp.Ravel(c); back != idx {
			t.Fatalf("Ravel(Unravel(%d))=%d", idx, back)
		}
	}
}

func TestRavelRowMajorOrder(t *testing.T) {
	sp := NewSpace(Shape{2, 3})
	want := map[string]uint64{
		"[0 0]": 0, "[0 1]": 1, "[0 2]": 2,
		"[1 0]": 3, "[1 1]": 4, "[1 2]": 5,
	}
	for idx := uint64(0); idx < 6; idx++ {
		c := sp.Unravel(idx)
		if want[c.String()] != idx {
			t.Fatalf("row-major order broken: %v -> %d", c, idx)
		}
	}
}

func TestUnravelInto(t *testing.T) {
	sp := NewSpace(Shape{4, 9})
	dst := make(Coord, 2)
	sp.UnravelInto(13, dst)
	if !dst.Equal(Coord{1, 4}) {
		t.Fatalf("UnravelInto(13)=%v, want [1 4]", dst)
	}
}

// UnravelInto's one-division form must agree with the two-division form
// (a quotient and a remainder per dimension) on random shapes of rank 1–4.
func TestUnravelIntoMatchesTwoDivisionForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		shape := make(Shape, 1+trial%4)
		for d := range shape {
			shape[d] = 1 + rng.Intn(40)
		}
		sp := NewSpace(shape)
		got, want := make(Coord, len(shape)), make(Coord, len(shape))
		for i := 0; i < 50; i++ {
			idx := uint64(rng.Int63n(int64(sp.Size())))
			sp.UnravelInto(idx, got)
			rest := idx
			for d := range shape {
				want[d] = int(rest / sp.Stride(d))
				rest %= sp.Stride(d)
			}
			if !got.Equal(want) {
				t.Fatalf("shape %v: UnravelInto(%d)=%v, want %v", shape, idx, got, want)
			}
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Lo: Coord{1, 2}, Hi: Coord{3, 5}}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := r.Area(); got != 12 {
		t.Fatalf("Area=%d, want 12", got)
	}
	if !r.Contains(Coord{2, 3}) || r.Contains(Coord{0, 3}) || r.Contains(Coord{2, 6}) {
		t.Fatal("Contains wrong")
	}
	bad := Rect{Lo: Coord{3, 2}, Hi: Coord{1, 5}}
	if err := bad.Validate(); err == nil {
		t.Fatal("inverted rect validated")
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{Lo: Coord{0, 0}, Hi: Coord{2, 2}}
	b := Rect{Lo: Coord{2, 2}, Hi: Coord{4, 4}}
	c := Rect{Lo: Coord{3, 3}, Hi: Coord{4, 4}}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("touching rects must intersect (inclusive bounds)")
	}
	if a.Intersects(c) || c.Intersects(a) {
		t.Fatal("disjoint rects must not intersect")
	}
}

func TestRectClip(t *testing.T) {
	s := Shape{10, 10}
	r := Rect{Lo: Coord{-3, 8}, Hi: Coord{4, 15}}
	c, ok := r.Clip(s)
	if !ok {
		t.Fatal("clip produced empty")
	}
	if !c.Equal(Rect{Lo: Coord{0, 8}, Hi: Coord{4, 9}}) {
		t.Fatalf("Clip=%v", c)
	}
	if _, ok := (Rect{Lo: Coord{11, 0}, Hi: Coord{12, 5}}).Clip(s); ok {
		t.Fatal("out-of-range rect should clip to empty")
	}
}

func TestRectCells(t *testing.T) {
	sp := NewSpace(Shape{4, 4})
	r := Rect{Lo: Coord{1, 1}, Hi: Coord{2, 2}}
	cells := r.Cells(sp, nil)
	want := []uint64{5, 6, 9, 10}
	if len(cells) != len(want) {
		t.Fatalf("Cells=%v", cells)
	}
	for i := range want {
		if cells[i] != want[i] {
			t.Fatalf("Cells=%v, want %v", cells, want)
		}
	}
}

func TestBoundingBox(t *testing.T) {
	sp := NewSpace(Shape{5, 5})
	cells := []uint64{sp.Ravel(Coord{1, 3}), sp.Ravel(Coord{4, 0}), sp.Ravel(Coord{2, 2})}
	bb, ok := BoundingBox(sp, cells)
	if !ok {
		t.Fatal("expected bbox")
	}
	if !bb.Equal(Rect{Lo: Coord{1, 0}, Hi: Coord{4, 3}}) {
		t.Fatalf("bbox=%v", bb)
	}
	if _, ok := BoundingBox(sp, nil); ok {
		t.Fatal("empty input must yield no bbox")
	}
}

// AppendBoundingBox appends the box's corners after what dst holds,
// leaves dst alone for an empty input, and writes in place once dst has
// room: the lineage store appends one box per pair this way.
func TestAppendBoundingBox(t *testing.T) {
	sp := NewSpace(Shape{4, 5, 6})
	cells := []uint64{sp.Ravel(Coord{3, 1, 5}), sp.Ravel(Coord{0, 4, 2}), sp.Ravel(Coord{2, 2, 0})}
	dst, ok := AppendBoundingBox([]int{-1}, sp, cells)
	if want := []int{-1, 0, 1, 0, 3, 4, 5}; !ok || !slices.Equal(dst, want) {
		t.Fatalf("got %v, %v; want %v, true", dst, ok, want)
	}
	if got, ok := AppendBoundingBox(dst, sp, nil); ok || !slices.Equal(got, dst) {
		t.Fatalf("empty input: got %v, %v", got, ok)
	}
	buf := make([]int, 0, 3*3)
	if allocs := testing.AllocsPerRun(10, func() { buf, _ = AppendBoundingBox(buf[:0], sp, cells) }); allocs != 0 {
		t.Fatalf("AppendBoundingBox into a buffer with room allocates %.1f times", allocs)
	}
}

func TestNeighborhood(t *testing.T) {
	sp := NewSpace(Shape{5, 5})
	// Interior point, radius 1: 3x3 block.
	n := Neighborhood(sp, Coord{2, 2}, 1, nil)
	if len(n) != 9 {
		t.Fatalf("interior neighborhood size=%d, want 9", len(n))
	}
	// Corner, radius 1: 2x2 block.
	n = Neighborhood(sp, Coord{0, 0}, 1, nil)
	if len(n) != 4 {
		t.Fatalf("corner neighborhood size=%d, want 4", len(n))
	}
	// Radius 0: only the center.
	n = Neighborhood(sp, Coord{3, 3}, 0, nil)
	if len(n) != 1 || n[0] != sp.Ravel(Coord{3, 3}) {
		t.Fatalf("radius-0 neighborhood=%v", n)
	}
	// Radius 3 matching the paper's cosmic-ray detector: 7x7 = 49 interior.
	sp2 := NewSpace(Shape{100, 100})
	n = Neighborhood(sp2, Coord{50, 50}, 3, nil)
	if len(n) != 49 {
		t.Fatalf("radius-3 neighborhood size=%d, want 49", len(n))
	}
}

// Neighborhood and Rect.Cells run per flagged pixel on the capture side
// and per cell in payload and derived mappings: into a buffer with room
// they allocate nothing, at any rank the stack corners hold.
func TestNeighborhoodAllocFree(t *testing.T) {
	sp := NewSpace(Shape{512, 2000})
	buf := make([]uint64, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() { buf = Neighborhood(sp, Coord{0, 1999}, 3, buf[:0]) }); allocs != 0 {
		t.Fatalf("Neighborhood allocates %.1f/op, want 0", allocs)
	}
	sp4 := NewSpace(Shape{3, 4, 5, 6})
	if allocs := testing.AllocsPerRun(100, func() { buf = Neighborhood(sp4, Coord{1, 2, 3, 4}, 1, buf[:0]) }); allocs != 0 {
		t.Fatalf("rank-4 Neighborhood allocates %.1f/op, want 0", allocs)
	}
	r := Rect{Lo: Coord{1, 2}, Hi: Coord{5, 9}}
	if allocs := testing.AllocsPerRun(100, func() { buf = r.Cells(sp, buf[:0]) }); allocs != 0 {
		t.Fatalf("Rect.Cells allocates %.1f/op, want 0", allocs)
	}
	// Above the stack rank the corners come from the heap, and the answer
	// is unchanged.
	sp5 := NewSpace(Shape{3, 3, 3, 3, 3})
	if got := Neighborhood(sp5, Coord{1, 1, 1, 1, 1}, 1, nil); len(got) != 243 {
		t.Fatalf("rank-5 neighborhood has %d cells, want 243", len(got))
	}
}

func TestRectClamp(t *testing.T) {
	r := Rect{Lo: Coord{-2, 3}, Hi: Coord{4, 12}}
	if !r.Clamp(Shape{3, 10}) || !r.Equal(Rect{Lo: Coord{0, 3}, Hi: Coord{2, 9}}) {
		t.Fatalf("Clamp = %v", r)
	}
	if (Rect{Lo: Coord{0, 10}, Hi: Coord{2, 12}}).Clamp(Shape{3, 10}) {
		t.Fatal("Clamp kept a rectangle past the shape")
	}
}

func TestSortCells(t *testing.T) {
	cells := []uint64{5, 1, 5, 3, 1, 9}
	got := SortCells(cells)
	want := []uint64{1, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("SortCells=%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortCells=%v, want %v", got, want)
		}
	}
	if out := SortCells(nil); len(out) != 0 {
		t.Fatal("nil input should remain empty")
	}
}

// SortCells against a plain sort-and-dedup reference, over the shapes the
// fast path and the sort path each have to get right.
func TestSortCellsMatchesReference(t *testing.T) {
	ref := func(cells []uint64) []uint64 {
		out := append([]uint64(nil), cells...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		n := 0
		for i, v := range out {
			if i == 0 || v != out[n-1] {
				out[n] = v
				n++
			}
		}
		return out[:n]
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(70)
		cells := make([]uint64, n)
		switch trial % 5 {
		case 0: // random, with duplicates
			for i := range cells {
				cells[i] = uint64(rng.Intn(2 * (n + 1)))
			}
		case 1: // strictly increasing
			for i := range cells {
				cells[i] = uint64(3*i + rng.Intn(3))
			}
		case 2: // sorted with runs of duplicates
			for i := range cells {
				cells[i] = uint64(i / 3)
			}
		case 3: // reversed
			for i := range cells {
				cells[i] = uint64(5 * (n - i))
			}
		case 4: // all one cell
			for i := range cells {
				cells[i] = 42
			}
		}
		want := ref(cells)
		got := SortCells(append([]uint64(nil), cells...))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: SortCells(%v) = %v, want %v", trial, cells, got, want)
		}
	}
}

func TestSortCellsAllocFree(t *testing.T) {
	sorted := make([]uint64, 512)
	for i := range sorted {
		sorted[i] = uint64(2 * i)
	}
	shuffled := make([]uint64, len(sorted))
	rng := rand.New(rand.NewSource(9))
	if allocs := testing.AllocsPerRun(50, func() {
		SortCells(sorted)
		copy(shuffled, sorted)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		SortCells(shuffled)
	}); allocs != 0 {
		t.Fatalf("SortCells allocates %.1f/op, want 0", allocs)
	}
}

// Property: Ravel/Unravel round-trips for arbitrary coordinates in
// arbitrary (small) shapes.
func TestQuickRavelRoundTrip(t *testing.T) {
	f := func(dims [3]uint8, cseed uint32) bool {
		shape := Shape{int(dims[0]%17) + 1, int(dims[1]%17) + 1, int(dims[2]%17) + 1}
		sp := NewSpace(shape)
		idx := uint64(cseed) % sp.Size()
		return sp.Ravel(sp.Unravel(idx)) == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: a rectangle's Cells enumeration has exactly Area entries, all
// contained in the rect, in strictly ascending linear order.
func TestQuickRectCells(t *testing.T) {
	f := func(lo0, lo1, ext0, ext1 uint8) bool {
		sp := NewSpace(Shape{40, 40})
		r := Rect{
			Lo: Coord{int(lo0 % 30), int(lo1 % 30)},
			Hi: Coord{int(lo0%30) + int(ext0%8), int(lo1%30) + int(ext1%8)},
		}
		cells := r.Cells(sp, nil)
		if uint64(len(cells)) != r.Area() {
			return false
		}
		for i, idx := range cells {
			if !r.Contains(sp.Unravel(idx)) {
				return false
			}
			if i > 0 && cells[i] <= cells[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRavel(b *testing.B) {
	sp := NewSpace(Shape{512, 2000})
	c := Coord{301, 1543}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sp.Ravel(c)
	}
}

func BenchmarkNeighborhoodR3(b *testing.B) {
	sp := NewSpace(Shape{512, 2000})
	c := Coord{256, 1000}
	buf := make([]uint64, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Neighborhood(sp, c, 3, buf[:0])
	}
}
