package lineage

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"subzero/internal/bitmap"
	"subzero/internal/fault"
	"subzero/internal/kvstore"
	"subzero/internal/rtree"
)

// TestCrashPointMatrix arms every registered kvstore failpoint of the
// write and flush path, one at a time, under a builder's WritePairs and
// Flush on a file-backed hashtable. A store lives as long as its process,
// so what a fault leaves is judged in process: either the build fails —
// WritePairs or Flush returns an error, and a failed Flush returns no store
// — or Flush returns a store that answers exactly as the reference does. A
// store flushed before the point was armed answers exactly while it is.
//
// The matrix walks fault.Registered(), so a new write site that registers
// its failpoint (as CONTRIBUTING requires) is tested here with no further
// wiring, and every point must fire through the builder: one no store
// operation reaches fails the matrix.
func TestCrashPointMatrix(t *testing.T) {
	var points []string
	for _, p := range fault.Registered() {
		if strings.HasPrefix(p, "kvstore/") {
			points = append(points, p)
		}
	}
	if len(points) == 0 {
		t.Fatal("no kvstore failpoints registered")
	}
	t.Logf("crash matrix over %d failpoints: %v", len(points), points)

	strat := StratFullOne
	rng := rand.New(rand.NewSource(77))
	pairsA := randomPairs(rng, 40)
	pairsB := randomPairs(rng, 100) // completes a block, so WritePairs commits one
	q := randomQuery(rand.New(rand.NewSource(3)), tOutSpace, 25)
	wantA := refBackward(pairsA, q, 0)
	wantB := refBackward(pairsB, q, 0)
	answers := func(t *testing.T, st *Store, want *bitmap.Bitmap) bool {
		t.Helper()
		got := bitmap.New(tInSpaces[0])
		if err := st.Backward(q, got, 0, testMapP, nil, nil); err != nil {
			t.Fatalf("query: %v", err)
		}
		return bitmapsEqual(got, want)
	}

	for _, pt := range points {
		t.Run(pt, func(t *testing.T) {
			defer fault.Reset()
			dir := t.TempDir()
			open := func(name string) *kvstore.LogStore {
				fs, err := kvstore.OpenFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { fs.Close() })
				return fs
			}
			stA := buildStore(t, open("a.log"), strat, toStorePairs(strat, pairsA))

			action := fault.Action{Kind: fault.KindError}
			if strings.HasSuffix(pt, "file/write") {
				action = fault.Action{Kind: fault.KindTorn, Bytes: 8}
			}
			if err := fault.Arm(pt, action); err != nil {
				t.Fatal(err)
			}
			b := newBuilder(t, open("b.log"), strat)
			var stB *Store
			err := b.WritePairs(toStorePairs(strat, pairsB))
			if err == nil {
				stB, err = b.Flush()
			}
			if err != nil && stB != nil {
				t.Fatalf("Flush failed at %s (%v) and returned a store", pt, err)
			}
			if fault.Hits(pt) == 0 {
				t.Fatalf("failpoint %s never fired under the builder", pt)
			}
			if !answers(t, stA, wantA) {
				t.Fatalf("store flushed before %s was armed answers differently under it", pt)
			}
			fault.Reset()
			if stB != nil && !answers(t, stB, wantB) {
				t.Fatalf("store flushed under %s answers differently from the reference", pt)
			}
			t.Logf("%s: build error %v, store returned %v", pt, err, stB != nil)
		})
	}
}

// TestRebuildByteIdentical: writing the same lineage into fresh stores
// produces byte-identical logs — record for record, key and value, in the
// same order — and the same trees, item for item in walk order, on either
// backing, and every store charges the same size: its log plus the encoded
// size of its in-memory indexes. This is the
// foundation of the self-healing path: a store rebuilt from re-execution
// is indistinguishable from one that never saw corruption. The container
// encoder's per-tile form choice is deterministic, so the property holds
// for every record, and a Many store's index is bulk-loaded in id order,
// so it is the same tree every time.
func TestRebuildByteIdentical(t *testing.T) {
	for _, strat := range []Strategy{StratFullOne, StratFullMany} {
		t.Run(strat.ID(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			pairs := randomPairs(rng, 80)
			// build writes and flushes the pairs into kv and returns the
			// store, its records in scan order and its trees' items.
			build := func(kv kvstore.Store) (*Store, []kvstore.KV, [][]int) {
				st := buildStore(t, kv, strat, toStorePairs(strat, pairs[:40]), toStorePairs(strat, pairs[40:]))
				var trees [][]int
				for _, tr := range st.trees {
					trees = append(trees, treeItems(tr))
				}
				var recs []kvstore.KV
				if err := kv.Scan(func(k, v []byte) bool {
					recs = append(recs, kvstore.KV{Key: bytes.Clone(k), Val: bytes.Clone(v)})
					return true
				}); err != nil {
					t.Fatal(err)
				}
				return st, recs, trees
			}
			openFile := func(path string) *kvstore.LogStore {
				fs, err := kvstore.OpenFile(path)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { fs.Close() })
				return fs
			}
			fsA := openFile(filepath.Join(t.TempDir(), "a.log"))
			stA, a, treesA := build(fsA)
			if (strat.Enc == Many) != (len(treesA) > 0) {
				t.Fatalf("%s store has %d trees", strat, len(treesA))
			}
			for name, kv := range map[string]kvstore.Store{"file": openFile(filepath.Join(t.TempDir(), "b.log")), "mem": kvstore.NewMem()} {
				t.Run(name, func(t *testing.T) {
					st, b, trees := build(kv)
					if !slices.EqualFunc(a, b, func(x, y kvstore.KV) bool {
						return bytes.Equal(x.Key, y.Key) && bytes.Equal(x.Val, y.Val)
					}) {
						t.Fatalf("%s store holds other records than the first file store (%d vs %d)", name, len(b), len(a))
					}
					if !slices.EqualFunc(trees, treesA, slices.Equal) {
						t.Fatalf("%s store built other trees than the first file store", name)
					}
					if kv.SizeBytes() != fsA.SizeBytes() {
						t.Fatalf("%s log holds %d B, the first file store's %d B", name, kv.SizeBytes(), fsA.SizeBytes())
					}
					idx := 0
					for _, tr := range st.trees {
						idx += tr.EncodedLen()
					}
					if got, want := st.SizeBytes(), kv.SizeBytes()+int64(idx); got != want || got != stA.SizeBytes() {
						t.Fatalf("SizeBytes = %d, want log %d + index %d = %d, as the first file store's %d",
							got, kv.SizeBytes(), idx, want, stA.SizeBytes())
					}
				})
			}
		})
	}
}

// treeItems lists a tree's items in walk order, each as its id, then its
// low and its high bounds.
func treeItems(tr *rtree.Tree) []int {
	var items []int
	tr.Walk(func(_, _ []int) bool { return true }, func(id uint64, lo, hi []int) bool {
		items = append(append(append(items, int(id)), lo...), hi...)
		return true
	})
	return items
}
