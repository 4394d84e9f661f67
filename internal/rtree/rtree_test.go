package rtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"subzero/internal/bitmap"
	"subzero/internal/grid"
)

func randRect(rng *rand.Rand, universe, maxExt int) grid.Rect {
	lo := grid.Coord{rng.Intn(universe), rng.Intn(universe)}
	return grid.Rect{
		Lo: lo,
		Hi: grid.Coord{lo[0] + rng.Intn(maxExt), lo[1] + rng.Intn(maxExt)},
	}
}

// bruteSearch is the reference implementation: a linear scan.
func bruteSearch(items []Item, q grid.Rect) map[uint64]bool {
	out := map[uint64]bool{}
	for _, it := range items {
		if it.Rect.Intersects(q) {
			out[it.ID] = true
		}
	}
	return out
}

func treeSearch(t *Tree, q grid.Rect) map[uint64]bool {
	out := map[uint64]bool{}
	t.Search(q, func(it Item) bool {
		out[it.ID] = true
		return true
	})
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := New(2)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatal("empty tree wrong shape")
	}
	found := false
	tr.Search(grid.Rect{Lo: grid.Coord{0, 0}, Hi: grid.Coord{10, 10}}, func(Item) bool {
		found = true
		return true
	})
	if found {
		t.Fatal("empty tree returned items")
	}
}

func TestInsertValidation(t *testing.T) {
	tr := New(2)
	if err := tr.Insert(Item{Rect: grid.Rect{Lo: grid.Coord{5, 5}, Hi: grid.Coord{1, 1}}}); err == nil {
		t.Fatal("inverted rect accepted")
	}
	if err := tr.Insert(Item{Rect: grid.Rect{Lo: grid.Coord{1}, Hi: grid.Coord{2}}}); err == nil {
		t.Fatal("rank-mismatched rect accepted")
	}
}

func TestInsertSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := New(2)
	var items []Item
	for i := 0; i < 2000; i++ {
		it := Item{Rect: randRect(rng, 500, 20), ID: uint64(i)}
		items = append(items, it)
		if err := tr.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 2000 {
		t.Fatalf("Len=%d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 100; q++ {
		query := randRect(rng, 500, 60)
		want := bruteSearch(items, query)
		got := treeSearch(tr, query)
		if len(got) != len(want) {
			t.Fatalf("query %v: got %d items, want %d", query, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("query %v: missing id %d", query, id)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := New(2)
	for i := 0; i < 100; i++ {
		_ = tr.Insert(Item{Rect: grid.RectOf(grid.Coord{i, i}), ID: uint64(i)})
	}
	n := 0
	tr.Search(grid.Rect{Lo: grid.Coord{0, 0}, Hi: grid.Coord{99, 99}}, func(Item) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestSearchPoint(t *testing.T) {
	tr := New(2)
	_ = tr.Insert(Item{Rect: grid.Rect{Lo: grid.Coord{0, 0}, Hi: grid.Coord{10, 10}}, ID: 1})
	_ = tr.Insert(Item{Rect: grid.Rect{Lo: grid.Coord{20, 20}, Hi: grid.Coord{30, 30}}, ID: 2})
	got := map[uint64]bool{}
	tr.SearchPoint(grid.Coord{5, 5}, func(it Item) bool {
		got[it.ID] = true
		return true
	})
	if !got[1] || got[2] {
		t.Fatalf("point search got %v", got)
	}
}

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 15, 16, 17, 300, 5000} {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Rect: randRect(rng, 400, 10), ID: uint64(i)}
		}
		tr := BulkLoad(2, items)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for q := 0; q < 30; q++ {
			query := randRect(rng, 400, 50)
			want := bruteSearch(items, query)
			got := treeSearch(tr, query)
			if len(got) != len(want) {
				t.Fatalf("n=%d query %v: got %d, want %d", n, query, len(got), len(want))
			}
		}
	}
}

func TestBulkLoad1D(t *testing.T) {
	items := make([]Item, 200)
	for i := range items {
		items[i] = Item{Rect: grid.Rect{Lo: grid.Coord{i * 3}, Hi: grid.Coord{i*3 + 1}}, ID: uint64(i)}
	}
	tr := BulkLoad(1, items)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := treeSearch(tr, grid.Rect{Lo: grid.Coord{10}, Hi: grid.Coord{20}})
	want := bruteSearch(items, grid.Rect{Lo: grid.Coord{10}, Hi: grid.Coord{20}})
	if len(got) != len(want) {
		t.Fatalf("1d search got %d, want %d", len(got), len(want))
	}
}

// EncodedLen is the length of Encode's output to the byte, for trees
// built either way, empty ones, and ids and coordinates of every varint
// length.
func TestEncodedLenIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for rank := 1; rank <= 3; rank++ {
		for _, n := range []int{0, 1, 300, 16000} {
			items := randomItems(rng, rank, n, 1<<20, 1<<10)
			for i := range items {
				items[i].ID = rng.Uint64() >> rng.Intn(64)
			}
			inc := New(rank)
			for _, it := range items[:min(n, 2000)] {
				if err := inc.Insert(it); err != nil {
					t.Fatal(err)
				}
			}
			for name, tr := range map[string]*Tree{"bulk": BulkLoad(rank, items), "insert": inc} {
				if got, want := tr.EncodedLen(), len(tr.Encode()); got != want {
					t.Errorf("rank %d, %d items, %s: EncodedLen = %d, len(Encode()) = %d", rank, tr.Len(), name, got, want)
				}
			}
		}
	}
}

// Property: tree search equals brute force for random workloads, both for
// incremental inserts and bulk load.
func TestQuickSearchEquivalence(t *testing.T) {
	f := func(seed int64, nItems uint8, queries [4][4]uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nItems)
		items := make([]Item, n)
		tr := New(2)
		for i := range items {
			items[i] = Item{Rect: randRect(rng, 100, 10), ID: uint64(i)}
			if err := tr.Insert(items[i]); err != nil {
				return false
			}
		}
		bl := BulkLoad(2, items)
		for _, q := range queries {
			query := grid.Rect{
				Lo: grid.Coord{int(q[0]) % 100, int(q[1]) % 100},
				Hi: grid.Coord{int(q[0])%100 + int(q[2])%30, int(q[1])%100 + int(q[3])%30},
			}
			want := bruteSearch(items, query)
			if got := treeSearch(tr, query); len(got) != len(want) {
				return false
			}
			if got := treeSearch(bl, query); len(got) != len(want) {
				return false
			}
		}
		return tr.CheckInvariants() == nil && bl.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// randomItems draws n items of the given rank whose rectangles start
// inside [0, universe) and may run past it by up to maxExt-1 cells.
func randomItems(rng *rand.Rand, rank, n, universe, maxExt int) []Item {
	items := make([]Item, n)
	for i := range items {
		lo, hi := make(grid.Coord, rank), make(grid.Coord, rank)
		for d := range lo {
			lo[d] = rng.Intn(universe)
			hi[d] = lo[d] + rng.Intn(maxExt)
		}
		items[i] = Item{Rect: grid.Rect{Lo: lo, Hi: hi}, ID: uint64(i)}
	}
	return items
}

// checkBitmapWalk walks tr with the predicate the lineage store uses — a
// box is kept iff it holds a set cell of b — and compares the visits with
// a per-cell scan of every item: each item whose rectangle holds a set
// cell must be visited exactly once, and no other.
func checkBitmapWalk(tr *Tree, items []Item, b *bitmap.Bitmap) error {
	sp := b.Space()
	want := map[uint64]bool{}
	for _, it := range items {
		if r, ok := it.Rect.Clip(sp.Shape()); ok {
			for _, c := range r.Cells(sp, nil) {
				if b.Get(c) {
					want[it.ID] = true
					break
				}
			}
		}
	}
	got := map[uint64]int{}
	tr.Walk(func(lo, hi []int) bool {
		return b.IntersectsRect(grid.Rect{Lo: lo, Hi: hi})
	}, func(id uint64, _, _ []int) bool {
		got[id]++
		return true
	})
	for id, n := range got {
		if n != 1 || !want[id] {
			return fmt.Errorf("item %d visited %d times, want %v", id, n, want[id])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("walk visited %d items, want %d", len(got), len(want))
	}
	return nil
}

// queryBitmaps returns the query shapes the lineage store meets: empty,
// full, one cell, an edge block and random cells.
func queryBitmaps(rng *rand.Rand, sp *grid.Space) map[string]*bitmap.Bitmap {
	shape := sp.Shape()
	qs := map[string]*bitmap.Bitmap{"empty": bitmap.New(sp)}
	full := bitmap.New(sp)
	full.SetAll()
	qs["full"] = full
	one := bitmap.New(sp)
	one.Set(uint64(rng.Int63n(int64(sp.Size()))))
	qs["one-cell"] = one
	block := bitmap.New(sp)
	lo, hi := make(grid.Coord, len(shape)), make(grid.Coord, len(shape))
	for d, n := range shape {
		lo[d] = rng.Intn(n)
		hi[d] = n - 1 // touches the far edge
	}
	block.SetRect(grid.Rect{Lo: lo, Hi: hi})
	qs["block"] = block
	scattered := bitmap.New(sp)
	for i := 0; i < 40; i++ {
		scattered.Set(uint64(rng.Int63n(int64(sp.Size()))))
	}
	qs["scattered"] = scattered
	return qs
}

// A Walk driven by a bitmap predicate finds exactly the items holding a
// query cell, each once, on incremental and bulk-loaded trees of every
// rank, including items that run past the space's edge.
func TestWalkBitmapMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, shape := range []grid.Shape{{300}, {40, 40}, {12, 10, 14}} {
		sp := grid.NewSpace(shape)
		rank := len(shape)
		items := randomItems(rng, rank, 1500, shape[0]+3, 6)
		inc := New(rank)
		for _, it := range items {
			if err := inc.Insert(it); err != nil {
				t.Fatal(err)
			}
		}
		trees := map[string]*Tree{"insert": inc, "bulk": BulkLoad(rank, items)}
		for tname, tr := range trees {
			for qname, q := range queryBitmaps(rng, sp) {
				if err := checkBitmapWalk(tr, items, q); err != nil {
					t.Fatalf("shape %v, %s tree, %s query: %v", shape, tname, qname, err)
				}
			}
		}
	}
}

// Walk asks keep only about entries whose parent keep accepted: a keep
// that rejects everything sees the root's entries and nothing below.
func TestWalkPrunesRejectedSubtrees(t *testing.T) {
	tr := BulkLoad(2, randomItems(rand.New(rand.NewSource(41)), 2, 3000, 200, 5))
	if tr.Height() < 3 {
		t.Fatalf("height %d, want a tree with internal levels", tr.Height())
	}
	asked, visited := 0, 0
	tr.Walk(func(_, _ []int) bool { asked++; return false }, func(uint64, []int, []int) bool { visited++; return true })
	if asked != tr.root.len() || visited != 0 {
		t.Fatalf("keep asked %d times, visit called %d times; want %d and 0", asked, visited, tr.root.len())
	}
}

// FuzzTreeSearch checks a bitmap-driven Walk against brute force on
// random trees and random query bitmaps.
func FuzzTreeSearch(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(3), uint8(2), false)
	f.Add(int64(2), uint16(40), uint8(90), uint8(1), true)
	f.Add(int64(3), uint16(900), uint8(0), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, density uint8, rank uint8, bulk bool) {
		rng := rand.New(rand.NewSource(seed))
		shape := make(grid.Shape, 1+int(rank)%3)
		for d := range shape {
			shape[d] = 1 + rng.Intn(40)
		}
		sp := grid.NewSpace(shape)
		items := randomItems(rng, len(shape), int(n)%2000, shape[0]+2, 5)
		tr := BulkLoad(len(shape), items)
		if !bulk {
			tr = NewWithFanout(len(shape), 4+int(seed&7))
			for _, it := range items {
				if err := tr.Insert(it); err != nil {
					t.Fatal(err)
				}
			}
		}
		q := bitmap.New(sp)
		for c := uint64(0); c < sp.Size(); c++ {
			if rng.Intn(256) < int(density) {
				q.Set(c)
			}
		}
		if err := checkBitmapWalk(tr, items, q); err != nil {
			t.Fatal(err)
		}
	})
}

// An insert allocates only when it creates a node: one split per several
// inserts, so well under one allocation per insert amortized.
func TestInsertAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for rank := 1; rank <= 3; rank++ {
		items := randomItems(rng, rank, 20000, 2000, 8)
		tr := New(rank)
		i := 0
		allocs := testing.AllocsPerRun(len(items)-1, func() {
			if err := tr.Insert(items[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > 1 {
			t.Fatalf("rank %d: Insert allocates %.2f per item, want <= 1", rank, allocs)
		}
	}
}

// A bulk load allocates a few arenas per tree level, not a node at a time:
// the pointer-per-node loader took 2 225 allocations for 10 k items.
func TestBulkLoadAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for rank := 1; rank <= 3; rank++ {
		items := randomItems(rng, rank, 10000, 2000, 8)
		boxes := make([]int, 0, len(items)*2*rank)
		ids := make([]uint64, len(items))
		for i, it := range items {
			boxes = append(append(boxes, it.Rect.Lo...), it.Rect.Hi...)
			ids[i] = it.ID
		}
		allocs := testing.AllocsPerRun(5, func() { BulkLoadBoxes(rank, boxes, ids) })
		if allocs > 32 {
			t.Fatalf("rank %d: BulkLoadBoxes of 10 k items allocates %.0f times, want <= 32", rank, allocs)
		}
	}
}

// BulkLoadBoxes leaves its input as it found it, so a caller can load the
// same items again.
func TestBulkLoadBoxesKeepsInput(t *testing.T) {
	items := randomItems(rand.New(rand.NewSource(41)), 2, 3000, 500, 8)
	boxes := make([]int, 0, len(items)*4)
	ids := make([]uint64, len(items))
	for i, it := range items {
		boxes = append(append(boxes, it.Rect.Lo...), it.Rect.Hi...)
		ids[i] = it.ID
	}
	wantBoxes, wantIDs := slices.Clone(boxes), slices.Clone(ids)
	a := BulkLoadBoxes(2, boxes, ids).Encode()
	if !slices.Equal(boxes, wantBoxes) || !slices.Equal(ids, wantIDs) {
		t.Fatal("BulkLoadBoxes modified its input")
	}
	if b := BulkLoadBoxes(2, boxes, ids).Encode(); !bytes.Equal(a, b) {
		t.Fatal("a second load of the same input encodes differently")
	}
}

// EncodedLen walks the node storage: no item slice, no allocation.
func TestEncodedLenAllocFree(t *testing.T) {
	tr := BulkLoad(2, randomItems(rand.New(rand.NewSource(37)), 2, 16000, 400, 6))
	if allocs := testing.AllocsPerRun(10, func() { tr.EncodedLen() }); allocs != 0 {
		t.Fatalf("EncodedLen allocates %.1f, want 0", allocs)
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rects := make([]Item, b.N)
	for i := range rects {
		rects[i] = Item{Rect: randRect(rng, 2000, 8), ID: uint64(i)}
	}
	tr := New(2)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tr.Insert(rects[i])
	}
}

func BenchmarkSearch10k(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	items := make([]Item, 10000)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, 2000, 8), ID: uint64(i)}
	}
	tr := BulkLoad(2, items)
	q := grid.Rect{Lo: grid.Coord{500, 500}, Hi: grid.Coord{520, 520}}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Search(q, func(Item) bool { return true })
	}
}

func BenchmarkBulkLoad10k(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	items := make([]Item, 10000)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, 2000, 8), ID: uint64(i)}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BulkLoad(2, items)
	}
}
