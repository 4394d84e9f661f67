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

// TestStoreEquivalence is the core correctness test: every storage
// strategy must answer backward and forward queries identically to the
// brute-force reference, for matched AND mismatched orientations, on both
// store backends.
func TestStoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pairs := randomPairs(rng, 120)

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
				st, err := OpenStore(kv, strat, tOutSpace, tInSpaces)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.WritePairs(toStorePairs(strat, pairs)); err != nil {
					t.Fatal(err)
				}
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
				if st.NumPairs() != len(pairs) {
					t.Fatalf("NumPairs=%d, want %d", st.NumPairs(), len(pairs))
				}
				if st.SizeBytes() <= 0 {
					t.Fatal("SizeBytes not positive after flush")
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

// TestStoreReopen verifies that a file-backed store answers identically
// after closing and reopening (index and metadata persistence).
func TestStoreReopen(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pairs := randomPairs(rng, 60)
	q := randomQuery(rand.New(rand.NewSource(9)), tOutSpace, 25)

	for _, strat := range allStoreStrategies() {
		t.Run(strat.ID(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.log")
			fs, err := kvstore.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			st, err := OpenStore(fs, strat, tOutSpace, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.WritePairs(toStorePairs(strat, pairs)); err != nil {
				t.Fatal(err)
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			want := bitmap.New(tInSpaces[0])
			if err := st.Backward(q, want, 0, testMapP, nil, nil); err != nil {
				t.Fatal(err)
			}
			wantPairs := st.NumPairs()
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}

			fs2, err := kvstore.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fs2.Close()
			st2, err := OpenStore(fs2, strat, tOutSpace, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			if st2.NumPairs() != wantPairs {
				t.Fatalf("reopened NumPairs=%d, want %d", st2.NumPairs(), wantPairs)
			}
			got := bitmap.New(tInSpaces[0])
			if err := st2.Backward(q, got, 0, testMapP, nil, nil); err != nil {
				t.Fatal(err)
			}
			if !bitmapsEqual(got, want) {
				t.Fatal("reopened store answers differently")
			}
		})
	}
}

func TestPayCoverageReporting(t *testing.T) {
	kv := kvstore.NewMem()
	for _, strat := range []Strategy{StratPayOne, StratPayMany, StratCompOne, StratCompMany} {
		st, err := OpenStore(kv, strat, tOutSpace, tInSpaces)
		if err != nil {
			t.Fatal(err)
		}
		pair := RegionPair{Out: []uint64{3, 4}, Payload: testPayload([][]uint64{{10}, {}})}
		if err := st.WritePairs([]RegionPair{pair}); err != nil {
			t.Fatal(err)
		}
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
		kv = kvstore.NewMem() // fresh for next strategy
	}
}

// ContainsOut answers per cell, including the cells at both edges of a
// 1024-cell tile and the last cell of the space, whether the pair holding
// it was flushed or still buffered.
func TestContainsOut(t *testing.T) {
	outSp := grid.NewSpace(grid.Shape{3, 1024})
	held := []uint64{5, 17, 0, 1023, 1024, 3071}
	for _, strat := range []Strategy{StratPayOne, StratPayMany, StratCompOne} {
		for _, flush := range []bool{false, true} {
			st, err := OpenStore(kvstore.NewMem(), strat, outSp, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			for _, cells := range [][]uint64{held[:2], held[2:]} {
				pair := RegionPair{Out: cells, Payload: testPayload([][]uint64{{1}, {}})}
				if err := st.WritePairs([]RegionPair{pair}); err != nil {
					t.Fatal(err)
				}
			}
			if flush {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			for _, cell := range []uint64{5, 17, 0, 1023, 1024, 3071, 6, 1, 1022, 1025, 2047, 2048, 3070} {
				want := slices.Contains(held, cell)
				got, err := st.ContainsOut(cell)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s (flushed %v): ContainsOut(%d)=%v, want %v", strat, flush, cell, got, want)
				}
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
		st, err := OpenStore(kv, strat, tOutSpace, tInSpaces)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WritePairs(toStorePairs(strat, pairs)); err != nil {
			t.Fatal(err)
		}
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
		st, err := OpenStore(kvstore.NewMem(), strat, tOutSpace, tInSpaces)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WritePairs(toStorePairs(strat, pairs)); err != nil {
			t.Fatal(err)
		}
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

func TestStoreRejectsWrongPairKind(t *testing.T) {
	kv := kvstore.NewMem()
	full, _ := OpenStore(kv, StratFullOne, tOutSpace, tInSpaces)
	if err := full.WritePairs([]RegionPair{{Out: []uint64{1}, Payload: []byte{1}}}); err == nil {
		t.Fatal("full store accepted payload pair")
	}
	pay, _ := OpenStore(kvstore.NewMem(), StratPayOne, tOutSpace, tInSpaces)
	if err := pay.WritePairs([]RegionPair{{Out: []uint64{1}, Ins: [][]uint64{{0}, {}}}}); err == nil {
		t.Fatal("payload store accepted full pair")
	}
}

func TestOpenStoreValidation(t *testing.T) {
	kv := kvstore.NewMem()
	if _, err := OpenStore(kv, StratBlackbox, tOutSpace, tInSpaces); err == nil {
		t.Fatal("blackbox store opened")
	}
	if _, err := OpenStore(kv, StratMap, tOutSpace, tInSpaces); err == nil {
		t.Fatal("map store opened")
	}
	if _, err := OpenStore(kv, StratFullOne, tOutSpace, nil); err == nil {
		t.Fatal("store with no inputs opened")
	}
}

func TestStoreInputIndexRange(t *testing.T) {
	st, _ := OpenStore(kvstore.NewMem(), StratFullOne, tOutSpace, tInSpaces)
	q := bitmap.New(tOutSpace)
	dst := bitmap.New(tInSpaces[0])
	if err := st.Backward(q, dst, 5, nil, nil, nil); err == nil {
		t.Fatal("out-of-range input accepted")
	}
	if err := st.Forward(q, dst, -1, nil, nil); err == nil {
		t.Fatal("negative input accepted")
	}
}

// Key collisions: the same output cell written by many pairs must
// accumulate all of them (One encodings merge id/payload lists).
func TestStoreKeyCollisions(t *testing.T) {
	for _, strat := range []Strategy{StratFullOne, StratPayOne} {
		kv := kvstore.NewMem()
		st, err := OpenStore(kv, strat, tOutSpace, tInSpaces)
		if err != nil {
			t.Fatal(err)
		}
		var pairs []RegionPair
		for i := 0; i < 10; i++ {
			full := RegionPair{Out: []uint64{7}, Ins: [][]uint64{{uint64(i)}, {}}}
			pairs = append(pairs, full)
		}
		if err := st.WritePairs(toStorePairs(strat, pairs)); err != nil {
			t.Fatal(err)
		}
		// Force multiple pending flushes to also exercise kv-merge.
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		more := RegionPair{Out: []uint64{7}, Ins: [][]uint64{{99}, {}}}
		if err := st.WritePairs(toStorePairs(strat, []RegionPair{more})); err != nil {
			t.Fatal(err)
		}
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
	st, _ := OpenStore(kvstore.NewMem(), StratFullOne, tOutSpace, tInSpaces)
	pairs := []RegionPair{
		{Out: []uint64{1, 2}, Ins: [][]uint64{{3, 4, 5}, {0}}},
		{Out: []uint64{9}, Ins: [][]uint64{{6}, {}}},
	}
	if err := st.WritePairs(pairs); err != nil {
		t.Fatal(err)
	}
	got := st.Stats()
	if got.Pairs != 2 || got.OutCells != 3 || got.InCells != 5 {
		t.Fatalf("stats=%+v", got)
	}
}
