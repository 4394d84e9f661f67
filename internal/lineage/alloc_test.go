package lineage

import (
	"math/rand"
	"path/filepath"
	"testing"

	"subzero/internal/binenc"
	"subzero/internal/bitmap"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
)

// A warmed FullOne backward lookup must stay within a small constant
// allocation budget per query, independent of the number of query cells:
// probes run through pooled scratch and batch keys, and records replay
// from the run cache straight into the destination bitmap. The bound is
// deliberately loose (map growth, pool misses) but far below the
// one-allocation-per-cell regime this guards against.
func TestBackwardLookupAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled lookup scratch: sync.Pool drops Puts at random under -race")
	}
	rng := rand.New(rand.NewSource(21))
	pairs := randomPairs(rng, 400)
	kv := kvstore.NewMem()
	st := buildStore(t, kv, StratFullOne, toStorePairs(StratFullOne, pairs))

	q := randomQuery(rng, tOutSpace, 600)
	dst := bitmap.New(tInSpaces[0])
	// Warm: record cache, lookup scratch pool, batch arenas.
	for i := 0; i < 3; i++ {
		dst.Clear()
		if err := st.Backward(q, dst, 0, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst.Clear()
		if err := st.Backward(q, dst, 0, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 25 {
		t.Fatalf("warmed Backward allocates %.1f/op, want <= 25 (per-cell allocations crept back?)", allocs)
	}
}

// A warmed FullMany backward lookup walks the R-tree once into the pooled
// id scratch and replays cached records: no candidate map, no window
// rectangle, no closure per record. The pointer-per-entry index with one
// window search per query rectangle took 17 allocations on this fixture;
// the bound leaves room for a pool refill after a GC.
func TestBackwardFullManyAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled lookup scratch: sync.Pool drops Puts at random under -race")
	}
	rng := rand.New(rand.NewSource(21))
	pairs := randomPairs(rng, 400)
	st := buildStore(t, kvstore.NewMem(), StratFullMany, pairs)
	q := randomQuery(rng, tOutSpace, 600)
	dst := bitmap.New(tInSpaces[0])
	lookup := func() {
		dst.Clear()
		if err := st.Backward(q, dst, 0, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		lookup()
	}
	if allocs := testing.AllocsPerRun(20, lookup); allocs > 2 {
		t.Fatalf("warmed FullMany Backward allocates %.1f/op, want <= 2", allocs)
	}
}

// ContainsOut on a One store reads the cell's tile in place through
// GetBatch: once warmed it allocates nothing, so a composite forward step
// that asks it for every output cell does not copy a tile per cell, as a
// FileStore Get (which clones the value) would.
func TestContainsOutAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled lookup scratch: sync.Pool drops Puts at random under -race")
	}
	fs, err := kvstore.OpenFile(filepath.Join(t.TempDir(), "comp.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	pairs := toStorePairs(StratCompOne, randomPairs(rand.New(rand.NewSource(4)), 120))
	st := buildStore(t, fs, StratCompOne, pairs)
	cell := pairs[0].Out[0]
	probe := func() {
		if ok, err := st.ContainsOut(cell); err != nil || !ok {
			t.Fatalf("ContainsOut(%d) = %v, %v; want true", cell, ok, err)
		}
	}
	probe()
	if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
		t.Fatalf("warmed ContainsOut allocates %.1f/op, want 0", allocs)
	}
}

// The write path allocates per batch, not per pair: keys and records
// encode into one pooled arena, and what is left per pair is amortized
// growth of the builder's log, index and buffers.
// If per-pair allocations creep up, capture overhead follows.
func TestWritePairsAllocBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pairs := randomPairs(rng, 64)
	b := newBuilder(t, kvstore.NewMem(), StratFullOne)
	// Warm: cell-entry buffers, record batch scratch.
	if err := b.WritePairs(pairs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := b.WritePairs(pairs); err != nil {
			t.Fatal(err)
		}
	})
	perPair := allocs / float64(len(pairs))
	if perPair > 3 {
		t.Fatalf("FullOne write path allocates %.2f/pair, want <= 3 (capture overhead regression)", perPair)
	}
}

// The in-situ container probe primitives must be allocation-free once a
// record's tiles are promoted: addTo/intersects/contains on a warmed
// containerSet are pure word arithmetic against the query bitmap.
func TestContainerSetProbeAllocFree(t *testing.T) {
	sp := grid.NewSpace(grid.Shape{64, 1024})
	var cells []uint64
	for c := uint64(0); c < 8192; c += 2 { // strided: bitmap containers
		cells = append(cells, c)
	}
	for c := uint64(16384); c < 16384+2048; c++ { // dense: full tiles
		cells = append(cells, c)
	}
	cells = append(cells, 40000, 40007, 40900) // scattered: array container
	cs, _, err := decodeCellSet(binenc.AppendCellSetContainers(nil, cells))
	if err != nil {
		t.Fatal(err)
	}
	dst := bitmap.New(sp)
	q := bitmap.New(sp)
	q.Set(4096)
	cs.addTo(dst) // addTo promotes nothing; AllocsPerRun's warm-up call promotes the probed tiles
	if allocs := testing.AllocsPerRun(100, func() {
		cs.addTo(dst)
		cs.intersects(q)
		cs.contains(16500)
	}); allocs != 0 {
		t.Fatalf("warmed containerSet probe allocates %.1f/op, want 0", allocs)
	}
	if got := dst.Count(); got != uint64(len(cells)) {
		t.Fatalf("addTo set %d cells, want %d", got, len(cells))
	}
	if !cs.intersects(q) || !cs.contains(16500) || cs.contains(40001) {
		t.Fatal("containerSet probe answers wrong")
	}
}

// A warmed Backward on a store holding tiled-container records must
// meet the same ≤25 allocs/op budget as the sparse case above: the
// in-situ probe path adds no per-record or per-tile allocations after
// tile blocks promote on first touch.
func TestBackwardLookupAllocBoundContainers(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled lookup scratch: sync.Pool drops Puts at random under -race")
	}
	outSp := grid.NewSpace(grid.Shape{64, 1024})
	inSps := []*grid.Space{grid.NewSpace(grid.Shape{64, 1024})}
	rng := rand.New(rand.NewSource(51))
	var pairs []RegionPair
	for p := 0; p < 48; p++ {
		rp := RegionPair{Ins: make([][]uint64, 1)}
		ob := uint64(rng.Intn(60)) * 1024
		for c := ob; c < ob+2048; c += 2 { // strided tile pair: bitmap containers
			rp.Out = append(rp.Out, c)
		}
		ib := uint64(rng.Intn(60)) * 1024
		for c := ib; c < ib+1024; c++ { // full tile
			rp.Ins[0] = append(rp.Ins[0], c)
		}
		pairs = append(pairs, rp)
	}
	st := buildStoreIn(t, kvstore.NewMem(), StratFullOne, outSp, inSps, toStorePairs(StratFullOne, pairs))

	q := randomQuery(rng, outSp, 600)
	dst := bitmap.New(inSps[0])
	for i := 0; i < 3; i++ {
		dst.Clear()
		if err := st.Backward(q, dst, 0, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst.Clear()
		if err := st.Backward(q, dst, 0, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 25 {
		t.Fatalf("warmed container Backward allocates %.1f/op, want <= 25 (container probe path allocating?)", allocs)
	}
}
