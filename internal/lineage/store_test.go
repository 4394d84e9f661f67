package lineage

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"subzero/internal/binenc"
	"subzero/internal/bitmap"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
)

// Test fixture: a fake 2-input operator over a 20x20 output, with input 0
// shaped 20x20 and input 1 shaped 8x8.
var (
	tOutSpace = grid.NewSpace(grid.Shape{20, 20})
	tInSpaces = []*grid.Space{grid.NewSpace(grid.Shape{20, 20}), grid.NewSpace(grid.Shape{8, 8})}
)

// testPayload encodes explicit input cell sets into a payload blob so the
// payload path can be checked against the same reference as full lineage.
func testPayload(ins [][]uint64) []byte {
	var buf []byte
	for _, in := range ins {
		buf = binenc.AppendCellSetContainers(buf, in)
	}
	return buf
}

// testMapP is the operator's map_p: decode the inputIdx'th cell set.
func testMapP(_ uint64, payload []byte, inputIdx int, dst []uint64) []uint64 {
	for i := 0; ; i++ {
		keep := i == inputIdx
		n, err := binenc.DecodeContainersInto(payload, func(start, length uint64) bool {
			for c := start; keep && c < start+length; c++ {
				dst = append(dst, c)
			}
			return keep
		})
		if err != nil {
			panic(err)
		}
		if keep {
			return dst
		}
		payload = payload[n:]
	}
}

// randomPairs generates region pairs with clustered cells.
func randomPairs(rng *rand.Rand, n int) []RegionPair {
	pairs := make([]RegionPair, 0, n)
	for p := 0; p < n; p++ {
		rp := RegionPair{}
		nOut := 1 + rng.Intn(6)
		base := rng.Intn(int(tOutSpace.Size()) - 25)
		for i := 0; i < nOut; i++ {
			rp.Out = append(rp.Out, uint64(base+rng.Intn(25)))
		}
		rp.Ins = make([][]uint64, 2)
		nIn0 := 1 + rng.Intn(8)
		base0 := rng.Intn(int(tInSpaces[0].Size()) - 30)
		for i := 0; i < nIn0; i++ {
			rp.Ins[0] = append(rp.Ins[0], uint64(base0+rng.Intn(30)))
		}
		if rng.Intn(4) > 0 { // input 1 sometimes unused
			nIn1 := 1 + rng.Intn(4)
			for i := 0; i < nIn1; i++ {
				rp.Ins[1] = append(rp.Ins[1], uint64(rng.Intn(int(tInSpaces[1].Size()))))
			}
		}
		rp.Normalize()
		pairs = append(pairs, rp)
	}
	return pairs
}

// Reference implementations.
func refBackward(pairs []RegionPair, q *bitmap.Bitmap, inputIdx int) *bitmap.Bitmap {
	dst := bitmap.New(tInSpaces[inputIdx])
	for _, rp := range pairs {
		hit := false
		for _, o := range rp.Out {
			if q.Get(o) {
				hit = true
				break
			}
		}
		if hit {
			dst.SetCells(rp.Ins[inputIdx])
		}
	}
	return dst
}

func refForward(pairs []RegionPair, q *bitmap.Bitmap, inputIdx int) *bitmap.Bitmap {
	dst := bitmap.New(tOutSpace)
	for _, rp := range pairs {
		hit := false
		for _, c := range rp.Ins[inputIdx] {
			if q.Get(c) {
				hit = true
				break
			}
		}
		if hit {
			dst.SetCells(rp.Out)
		}
	}
	return dst
}

func bitmapsEqual(a, b *bitmap.Bitmap) bool {
	if a.Count() != b.Count() {
		return false
	}
	eq := true
	a.Iterate(func(idx uint64) bool {
		if !b.Get(idx) {
			eq = false
		}
		return eq
	})
	return eq
}

// toStorePairs converts full pairs into the representation a given mode
// stores (payload pairs for Pay/Comp).
func toStorePairs(strat Strategy, pairs []RegionPair) []RegionPair {
	if strat.Mode == Full {
		return pairs
	}
	out := make([]RegionPair, len(pairs))
	for i, rp := range pairs {
		out[i] = RegionPair{Out: rp.Out, Payload: testPayload(rp.Ins)}
	}
	return out
}

func allStoreStrategies() []Strategy {
	return []Strategy{
		StratFullOne, StratFullMany, StratFullOneFwd, StratFullManyFwd,
		StratPayOne, StratPayMany, StratCompOne, StratCompMany,
	}
}

func randomQuery(rng *rand.Rand, space *grid.Space, n int) *bitmap.Bitmap {
	q := bitmap.New(space)
	for i := 0; i < n; i++ {
		q.Set(uint64(rng.Intn(int(space.Size()))))
	}
	return q
}

// newBuilder returns a builder over kv whose spaces are tOutSpace and
// tInSpaces.
func newBuilder(t testing.TB, kv kvstore.Store, strat Strategy) *Builder {
	t.Helper()
	b, err := NewBuilder(kv, strat, tOutSpace, tInSpaces)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// buildStore writes each batch into a builder over kv with one WritePairs
// call, in order, and returns the store its Flush returns. The store's
// spaces are tOutSpace and tInSpaces.
func buildStore(t testing.TB, kv kvstore.Store, strat Strategy, batches ...[]RegionPair) *Store {
	t.Helper()
	return buildStoreIn(t, kv, strat, tOutSpace, tInSpaces, batches...)
}

// buildStoreIn is buildStore over the given spaces.
func buildStoreIn(t testing.TB, kv kvstore.Store, strat Strategy, outSpace *grid.Space, inSpaces []*grid.Space, batches ...[]RegionPair) *Store {
	t.Helper()
	b, err := NewBuilder(kv, strat, outSpace, inSpaces)
	if err != nil {
		t.Fatal(err)
	}
	for _, pairs := range batches {
		if err := b.WritePairs(pairs); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreEquivalence is the core correctness test: every storage
// strategy must answer backward and forward queries identically to the
// brute-force reference, for matched AND mismatched orientations, on both
// store backends, which charge the same size.
func TestStoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pairs := randomPairs(rng, 120)

	// The memory backing runs first; a file store must then charge the
	// same size as the memory store of its strategy.
	memSize := map[string]int64{}
	for _, backend := range []string{"mem", "file"} {
		for _, strat := range allStoreStrategies() {
			t.Run(fmt.Sprintf("%s/%s", backend, strat.ID()), func(t *testing.T) {
				var kv kvstore.Store
				if backend == "mem" {
					kv = kvstore.NewMem()
				} else {
					fs, err := kvstore.OpenFile(filepath.Join(t.TempDir(), "s.log"))
					if err != nil {
						t.Fatal(err)
					}
					defer fs.Close()
					kv = fs
				}
				st := buildStore(t, kv, strat, toStorePairs(strat, pairs))
				if st.NumPairs() != len(pairs) {
					t.Fatalf("NumPairs=%d, want %d", st.NumPairs(), len(pairs))
				}
				if st.SizeBytes() <= 0 {
					t.Fatal("SizeBytes not positive after flush")
				}
				if backend == "mem" {
					memSize[strat.ID()] = st.SizeBytes()
				} else if want, ok := memSize[strat.ID()]; ok && st.SizeBytes() != want {
					t.Fatalf("file store charges %d B, the memory store %d B", st.SizeBytes(), want)
				}

				qrng := rand.New(rand.NewSource(7))
				for trial := 0; trial < 20; trial++ {
					for inputIdx := 0; inputIdx < 2; inputIdx++ {
						// Backward.
						q := randomQuery(qrng, tOutSpace, 1+qrng.Intn(30))
						want := refBackward(pairs, q, inputIdx)
						got := bitmap.New(tInSpaces[inputIdx])
						if err := st.Backward(q, got, inputIdx, testMapP, nil, nil); err != nil {
							t.Fatal(err)
						}
						if !bitmapsEqual(got, want) {
							t.Fatalf("backward input %d: got %d cells, want %d", inputIdx, got.Count(), want.Count())
						}
						// Forward.
						qf := randomQuery(qrng, tInSpaces[inputIdx], 1+qrng.Intn(20))
						wantF := refForward(pairs, qf, inputIdx)
						gotF := bitmap.New(tOutSpace)
						if err := st.Forward(qf, gotF, inputIdx, testMapP, nil); err != nil {
							t.Fatal(err)
						}
						if !bitmapsEqual(gotF, wantF) {
							t.Fatalf("forward input %d: got %d cells, want %d", inputIdx, gotF.Count(), wantF.Count())
						}
					}
				}
			})
		}
	}
}

func TestPayCoverageReporting(t *testing.T) {
	for _, strat := range []Strategy{StratPayOne, StratPayMany, StratCompOne, StratCompMany} {
		pair := RegionPair{Out: []uint64{3, 4}, Payload: testPayload([][]uint64{{10}, {}})}
		st := buildStore(t, kvstore.NewMem(), strat, []RegionPair{pair})
		q := bitmap.FromCells(tOutSpace, []uint64{3, 7}) // 3 covered, 7 not
		dst := bitmap.New(tInSpaces[0])
		covered := bitmap.New(tOutSpace)
		if err := st.Backward(q, dst, 0, testMapP, covered, nil); err != nil {
			t.Fatal(err)
		}
		if !covered.Get(3) || covered.Get(7) || covered.Get(4) {
			t.Fatalf("%s: coverage wrong: covered(3)=%v covered(7)=%v", strat, covered.Get(3), covered.Get(7))
		}
		if !dst.Get(10) || dst.Count() != 1 {
			t.Fatalf("%s: backward result wrong", strat)
		}
	}
}

// ContainsOut answers per cell, including the cells at both edges of a
// 1024-cell tile and the last cell of the space.
func TestContainsOut(t *testing.T) {
	outSp := grid.NewSpace(grid.Shape{3, 1024})
	held := []uint64{5, 17, 0, 1023, 1024, 3071}
	for _, strat := range []Strategy{StratPayOne, StratPayMany, StratCompOne} {
		pay := testPayload([][]uint64{{1}, {}})
		st := buildStoreIn(t, kvstore.NewMem(), strat, outSp, tInSpaces,
			[]RegionPair{{Out: held[:2], Payload: pay}}, []RegionPair{{Out: held[2:], Payload: pay}})
		for _, cell := range []uint64{5, 17, 0, 1023, 1024, 3071, 6, 1, 1022, 1025, 2047, 2048, 3070} {
			want := slices.Contains(held, cell)
			got, err := st.ContainsOut(cell)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: ContainsOut(%d)=%v, want %v", strat, cell, got, want)
			}
		}
	}
}

func TestStoreAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pairs := randomPairs(rng, 200)
	abort := func() bool { return true }
	fullQ := bitmap.New(tOutSpace)
	fullQ.SetAll()

	for _, strat := range allStoreStrategies() {
		kv := kvstore.NewMem()
		st := buildStore(t, kv, strat, toStorePairs(strat, pairs))
		dst := bitmap.New(tInSpaces[0])
		if err := st.Backward(fullQ, dst, 0, testMapP, nil, abort); err != ErrAborted {
			t.Fatalf("%s: backward abort err=%v, want ErrAborted", strat, err)
		}
	}
}

// A Many lookup polls its abort hook once before the index walk, then
// every abortCheckInterval tested boxes and every abortCheckInterval
// records; whichever poll says stop, the lookup returns ErrAborted.
func TestManyLookupHonorsEveryAbortPoll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pairs := randomPairs(rng, 400)
	for _, strat := range []Strategy{StratFullMany, StratPayMany, StratFullManyFwd} {
		st := buildStore(t, kvstore.NewMem(), strat, toStorePairs(strat, pairs))
		lookup := func(abort func() bool) error {
			if strat.Orient == ForwardOpt {
				q := bitmap.New(tInSpaces[0])
				q.SetAll()
				return st.Forward(q, bitmap.New(tOutSpace), 0, nil, abort)
			}
			q := bitmap.New(tOutSpace)
			q.SetAll()
			return st.Backward(q, bitmap.New(tInSpaces[0]), 0, testMapP, nil, abort)
		}
		polls := 0
		if err := lookup(func() bool { polls++; return false }); err != nil {
			t.Fatal(err)
		}
		// One before the walk, at least one per 64 of the 400 leaf boxes
		// and one per 64 of the 400 records.
		if polls < 1+2*(400/abortCheckInterval) {
			t.Fatalf("%s: a full-array lookup polled abort %d times", strat, polls)
		}
		for k := 1; k <= polls; k++ {
			n := 0
			if err := lookup(func() bool { n++; return n == k }); !errors.Is(err, ErrAborted) {
				t.Fatalf("%s: abort on poll %d of %d: err = %v, want ErrAborted", strat, k, polls, err)
			}
		}
	}
}

// WritePairs keeps no caller memory once it returns: a payload builder that
// buffers cell entries for its Flush holds its own copy of each payload,
// so a caller reusing its buffer cannot change stored lineage.
func TestWritePairsOwnsPayloads(t *testing.T) {
	mapp := func(_ uint64, payload []byte, _ int, dst []uint64) []uint64 {
		return append(dst, uint64(payload[0]))
	}
	for _, strat := range []Strategy{StratPayOne, StratCompOne, StratPayMany} {
		b := newBuilder(t, kvstore.NewMem(), strat)
		payload := []byte{7}
		if err := b.WritePairs([]RegionPair{{Out: []uint64{1}, Payload: payload}}); err != nil {
			t.Fatal(err)
		}
		payload[0] = 9
		st, err := b.Flush()
		if err != nil {
			t.Fatal(err)
		}
		dst := bitmap.New(tInSpaces[0])
		if err := st.Backward(bitmap.FromCells(tOutSpace, []uint64{1}), dst, 0, mapp, nil, nil); err != nil {
			t.Fatal(err)
		}
		if !dst.Get(7) || dst.Get(9) {
			t.Fatalf("%s: backward of cell 1 = %v, want [7]: the store aliased the caller's payload", strat, dst.Cells(nil))
		}
	}
}

func TestStoreRejectsWrongPairKind(t *testing.T) {
	full := newBuilder(t, kvstore.NewMem(), StratFullOne)
	if err := full.WritePairs([]RegionPair{{Out: []uint64{1}, Payload: []byte{1}}}); err == nil {
		t.Fatal("full store accepted payload pair")
	}
	pay := newBuilder(t, kvstore.NewMem(), StratPayOne)
	if err := pay.WritePairs([]RegionPair{{Out: []uint64{1}, Ins: [][]uint64{{0}, {}}}}); err == nil {
		t.Fatal("payload store accepted full pair")
	}
}

// NewBuilder validates a strategy and its spaces.
func TestNewBuilderValidation(t *testing.T) {
	kv := kvstore.NewMem()
	open := func(strat Strategy, ins []*grid.Space) error {
		_, err := NewBuilder(kv, strat, tOutSpace, ins)
		return err
	}
	if err := open(StratBlackbox, tInSpaces); err == nil {
		t.Fatal("blackbox store opened")
	}
	if err := open(StratMap, tInSpaces); err == nil {
		t.Fatal("map store opened")
	}
	if err := open(StratFullOne, nil); err == nil {
		t.Fatal("store with no inputs opened")
	}
	if err := open(StratFullOne, tInSpaces); err != nil {
		t.Fatalf("a valid store did not open: %v", err)
	}
}

func TestStoreInputIndexRange(t *testing.T) {
	st := buildStore(t, kvstore.NewMem(), StratFullOne)
	q := bitmap.New(tOutSpace)
	dst := bitmap.New(tInSpaces[0])
	if err := st.Backward(q, dst, 5, nil, nil, nil); err == nil {
		t.Fatal("out-of-range input accepted")
	}
	if err := st.Forward(q, dst, -1, nil, nil); err == nil {
		t.Fatal("negative input accepted")
	}
}

// Key collisions: the same output cell written by many pairs, across
// batches, must accumulate all of them in one id or payload list.
func TestStoreKeyCollisions(t *testing.T) {
	for _, strat := range []Strategy{StratFullOne, StratPayOne} {
		var pairs []RegionPair
		for i := 0; i < 10; i++ {
			full := RegionPair{Out: []uint64{7}, Ins: [][]uint64{{uint64(i)}, {}}}
			pairs = append(pairs, full)
		}
		more := RegionPair{Out: []uint64{7}, Ins: [][]uint64{{99}, {}}}
		st := buildStore(t, kvstore.NewMem(), strat, toStorePairs(strat, pairs), toStorePairs(strat, []RegionPair{more}))
		q := bitmap.FromCells(tOutSpace, []uint64{7})
		dst := bitmap.New(tInSpaces[0])
		if err := st.Backward(q, dst, 0, testMapP, nil, nil); err != nil {
			t.Fatal(err)
		}
		if dst.Count() != 11 {
			t.Fatalf("%s: collision lost lineage: %d cells, want 11", strat, dst.Count())
		}
	}
}

func TestStoreStatsAccumulate(t *testing.T) {
	pairs := []RegionPair{
		{Out: []uint64{1, 2}, Ins: [][]uint64{{3, 4, 5}, {0}}},
		{Out: []uint64{9}, Ins: [][]uint64{{6}, {}}},
	}
	got := buildStore(t, kvstore.NewMem(), StratFullOne, pairs).Stats()
	if got.Pairs != 2 || got.OutCells != 3 || got.InCells != 5 {
		t.Fatalf("stats=%+v", got)
	}
}

// lifecycleAnswers is what TestStoreLifecycle asks a store: a backward and
// a forward lookup, and ContainsOut of every output cell.
type lifecycleAnswers struct{ back, fwd, contains *bitmap.Bitmap }

func askStore(t *testing.T, st *Store, qOut, qIn *bitmap.Bitmap) lifecycleAnswers {
	t.Helper()
	a := lifecycleAnswers{bitmap.New(tInSpaces[0]), bitmap.New(tOutSpace), bitmap.New(tOutSpace)}
	if err := st.Backward(qOut, a.back, 0, testMapP, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Forward(qIn, a.fwd, 0, testMapP, nil); err != nil {
		t.Fatal(err)
	}
	for cell := uint64(0); cell < tOutSpace.Size(); cell++ {
		ok, err := st.ContainsOut(cell)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			a.contains.Set(cell)
		}
	}
	return a
}

func (a lifecycleAnswers) equal(b lifecycleAnswers) bool {
	return bitmapsEqual(a.back, b.back) && bitmapsEqual(a.fwd, b.fwd) && bitmapsEqual(a.contains, b.contains)
}

// TestStoreLifecycle pins a store's one lifecycle, build → Flush → read:
// the store a Builder's Flush returns answers lookups and counts the pairs
// written to it, and a builder flushed without a pair writes no log byte
// and returns a store with no pairs that answers empty.
func TestStoreLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pairs := randomPairs(rng, 150)
	qOut, qIn := randomQuery(rng, tOutSpace, 30), randomQuery(rng, tInSpaces[0], 30)
	for _, strat := range allStoreStrategies() {
		t.Run(strat.ID(), func(t *testing.T) {
			sp := toStorePairs(strat, pairs)
			dir := t.TempDir()
			open := func(name string) *kvstore.LogStore {
				t.Helper()
				fs, err := kvstore.OpenFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { fs.Close() })
				return fs
			}

			st := buildStore(t, open("s.log"), strat, sp[:70], sp[70:])
			want := askStore(t, st, qOut, qIn)
			if st.NumPairs() != len(pairs) || want.back.Count() == 0 {
				t.Fatalf("flushed store holds %d pairs and answers %d backward cells; want %d pairs", st.NumPairs(), want.back.Count(), len(pairs))
			}
			if !askStore(t, st, qOut, qIn).equal(want) {
				t.Fatal("flushed store answers differently when asked again")
			}

			kv := open("empty.log")
			empty := buildStore(t, kv, strat)
			if a := askStore(t, empty, qOut, qIn); empty.NumPairs() != 0 || a.back.Count() != 0 || a.fwd.Count() != 0 || a.contains.Count() != 0 {
				t.Fatalf("empty store holds %d pairs and answers %d backward, %d forward and %d contained cells",
					empty.NumPairs(), a.back.Count(), a.fwd.Count(), a.contains.Count())
			}
			if n := kv.SizeBytes(); n != 0 {
				t.Fatalf("a builder flushed without a pair wrote %d log bytes", n)
			}
		})
	}
}

// halfTileBatch applies the first half of the first tile batch written
// through it and then fails the batch, as a full disk or a crash mid-write
// leaves a prefix behind.
type halfTileBatch struct {
	kvstore.Store
	cut bool
}

var errHalfBatch = errors.New("tile batch cut in half")

func (h *halfTileBatch) PutBatch(kvs []kvstore.KV) error {
	if h.cut || len(kvs) < 2 || kvs[0].Key[0] != keyTile {
		return h.Store.PutBatch(kvs)
	}
	h.cut = true
	if err := h.Store.PutBatch(kvs[:len(kvs)/2]); err != nil {
		return err
	}
	return errHalfBatch
}

// A Flush whose tile batch fails halfway returns the error and no store:
// nothing can read what it left behind, and the caller drops the
// hashtable.
func TestFailedFlushReturnsNoStore(t *testing.T) {
	for _, strat := range []Strategy{StratFullOne, StratPayOne} {
		t.Run(strat.ID(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			var pairs []RegionPair
			for len(pairs) < 1000 {
				pairs = append(pairs, fuzzPairs(rng, strat)...)
			}
			cut := &halfTileBatch{Store: kvstore.NewMem()}
			b, err := NewBuilder(cut, strat, fOutSpace, fInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.WritePairs(pairs); err != nil {
				t.Fatal(err)
			}
			st, err := b.Flush()
			if !cut.cut {
				t.Fatal("no tile batch was cut")
			}
			if st != nil || !errors.Is(err, errHalfBatch) {
				t.Fatalf("Flush cut halfway returned store %p, err %v; want no store and %v", st, err, errHalfBatch)
			}
		})
	}
}
