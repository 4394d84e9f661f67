package lineage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"subzero/internal/bitmap"
	"subzero/internal/fault"
	"subzero/internal/kvstore"
)

// TestCrashPointMatrix iterates every registered kvstore failpoint in
// the write, flush and commit path: build and flush one store cleanly, arm
// the point, build and flush a second store into the fault, abandon both
// without closing (a simulated kill — buffered bytes and unsynced state die
// with the process), and reopen both. The store whose Flush returned before
// the fault must answer exactly; the one the fault cut must reopen without
// error and answer a subset of what was written to it.
//
// The matrix walks fault.Registered(), so a new fsync/commit site that
// registers its failpoint (as CONTRIBUTING requires) is tested here with
// no further wiring.
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
	pairsB := randomPairs(rng, 40)
	q := randomQuery(rand.New(rand.NewSource(3)), tOutSpace, 25)
	wantA := refBackward(pairsA, q, 0)
	wantB := refBackward(pairsB, q, 0)

	for _, pt := range points {
		t.Run(pt, func(t *testing.T) {
			defer fault.Reset()
			dir := t.TempDir()
			pathA, pathB := filepath.Join(dir, "a.log"), filepath.Join(dir, "b.log")
			fsA, err := kvstore.OpenFile(pathA)
			if err != nil {
				t.Fatal(err)
			}
			buildStore(t, fsA, strat, toStorePairs(strat, pairsA))

			action := fault.Action{Kind: fault.KindError}
			if strings.HasSuffix(pt, "file/write") {
				action = fault.Action{Kind: fault.KindTorn, Bytes: 8}
			}
			if err := fault.Arm(pt, action); err != nil {
				t.Fatal(err)
			}
			// Store B goes through the lineage write path.
			fsB, err := kvstore.OpenFile(pathB)
			if err != nil {
				t.Fatal(err)
			}
			b := newBuilder(t, fsB, strat)
			if err := b.WritePairs(toStorePairs(strat, pairsB)); err == nil {
				_, _ = b.Flush()
			}
			if fault.Hits(pt) == 0 && strings.HasPrefix(pt, "kvstore/file/") {
				// The wrapped file's Sync is unreachable through the
				// store: a file store deliberately never fsyncs its log
				// (lineage is a recoverable cache). Drive the file
				// layer directly so the point still proves out.
				raw, err := os.Create(filepath.Join(dir, "direct"))
				if err != nil {
					t.Fatal(err)
				}
				wf := fault.WrapFile("kvstore/file", raw)
				if _, err := wf.Write([]byte("x")); err == nil {
					_ = wf.Sync()
				}
				_ = raw.Close()
			}
			if fault.Hits(pt) == 0 {
				t.Fatalf("failpoint %s never fired", pt)
			}
			fault.Reset()

			// Simulated kill: both stores are abandoned, never closed.
			answer := func(path string) *bitmap.Bitmap {
				t.Helper()
				fs, err := kvstore.OpenFile(path)
				if err != nil {
					t.Fatalf("reopen %s after crash at %s: %v", filepath.Base(path), pt, err)
				}
				t.Cleanup(func() { fs.Close() })
				st, err := OpenStore(fs, strat, tOutSpace, tInSpaces)
				if err != nil {
					t.Fatalf("OpenStore %s after crash at %s: %v", filepath.Base(path), pt, err)
				}
				got := bitmap.New(tInSpaces[0])
				if err := st.Backward(q, got, 0, testMapP, nil, nil); err != nil {
					t.Fatalf("query %s after crash at %s: %v", filepath.Base(path), pt, err)
				}
				return got
			}
			if !bitmapsEqual(answer(pathA), wantA) {
				t.Fatalf("store flushed before the crash at %s answers differently after reopen", pt)
			}
			assertSubset(t, answer(pathB), wantB, "recovered answer exceeds written lineage after crash at "+pt)
		})
	}
}

// assertSubset fails unless every cell of sub is set in super.
func assertSubset(t *testing.T, sub, super *bitmap.Bitmap, msg string) {
	t.Helper()
	ok := true
	sub.Iterate(func(idx uint64) bool {
		if !super.Get(idx) {
			ok = false
		}
		return ok
	})
	if !ok {
		t.Fatal(msg)
	}
}

// TestRebuildByteIdentical: writing the same lineage into two fresh
// stores produces byte-identical logs — record for record, key and
// value, in the same order — on either backing, and the memory and file
// backings charge the same size. This is the foundation of the
// self-healing path: a store rebuilt from re-execution is
// indistinguishable from one that never saw corruption. The container
// encoder's per-tile form choice is deterministic, so the property holds
// for every record. A Many store's index is built in id order, which is
// log order, so one reopened without its meta blob rebuilds, from its
// records alone, the very trees its Flush built, and charges their exact
// encoded size.
func TestRebuildByteIdentical(t *testing.T) {
	for _, strat := range []Strategy{StratFullOne, StratFullMany} {
		t.Run(strat.ID(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			pairs := randomPairs(rng, 80)
			var trees [][]byte
			// build writes and flushes the pairs into kv and returns its
			// records in scan order.
			build := func(kv kvstore.Store) []kvstore.KV {
				st := buildStore(t, kv, strat, toStorePairs(strat, pairs[:40]), toStorePairs(strat, pairs[40:]))
				trees = trees[:0]
				for _, tr := range st.trees {
					trees = append(trees, tr.Encode())
				}
				var recs []kvstore.KV
				if err := kv.Scan(func(k, v []byte) bool {
					recs = append(recs, kvstore.KV{Key: bytes.Clone(k), Val: bytes.Clone(v)})
					return true
				}); err != nil {
					t.Fatal(err)
				}
				return recs
			}
			openFile := func(path string) *kvstore.LogStore {
				fs, err := kvstore.OpenFile(path)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { fs.Close() })
				return fs
			}
			pathB := filepath.Join(t.TempDir(), "b.log")
			fsA, fsB, mem := openFile(filepath.Join(t.TempDir(), "a.log")), openFile(pathB), kvstore.NewMem()
			a := build(fsA)
			for name, kv := range map[string]kvstore.Store{"second file store": fsB, "memory store": mem} {
				b := build(kv)
				if !slices.EqualFunc(a, b, func(x, y kvstore.KV) bool {
					return bytes.Equal(x.Key, y.Key) && bytes.Equal(x.Val, y.Val)
				}) {
					t.Fatalf("%s holds other records than the first file store (%d vs %d)", name, len(b), len(a))
				}
				if kv.SizeBytes() != fsA.SizeBytes() {
					t.Fatalf("%s charges %d B, the first file store %d B", name, kv.SizeBytes(), fsA.SizeBytes())
				}
			}
			if err := fsB.Close(); err != nil {
				t.Fatal(err)
			}

			// Each backing without its meta blob: the file store reopened
			// after the sidecar is deleted, the memory store's records
			// copied, in scan order, into a fresh one.
			if err := os.Remove(pathB + ".meta"); err != nil {
				t.Fatal(err)
			}
			bare := kvstore.NewMem()
			if err := bare.PutBatch(a); err != nil {
				t.Fatal(err)
			}
			for name, kv := range map[string]kvstore.Store{"file": openFile(pathB), "mem": bare} {
				t.Run(name, func(t *testing.T) {
					st, err := OpenStore(kv, strat, tOutSpace, tInSpaces)
					if err != nil {
						t.Fatal(err)
					}
					if len(st.trees) != len(trees) {
						t.Fatalf("rebuilt store has %d trees, flushed store %d", len(st.trees), len(trees))
					}
					idx := 0
					for i, tr := range st.trees {
						enc := tr.Encode()
						if !bytes.Equal(enc, trees[i]) {
							t.Fatalf("slot %d: rebuilt tree encodes %d bytes unlike the %d Flush built", i, len(enc), len(trees[i]))
						}
						idx += len(enc)
					}
					if got, want := st.SizeBytes(), kv.SizeBytes()+int64(idx); got != want {
						t.Fatalf("rebuilt SizeBytes = %d, want log %d + index %d", got, kv.SizeBytes(), idx)
					}
				})
			}
		})
	}
}
