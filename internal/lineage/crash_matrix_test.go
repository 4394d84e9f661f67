package lineage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
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
			stA, err := OpenStore(fsA, strat, tOutSpace, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			if err := stA.WritePairs(toStorePairs(strat, pairsA)); err != nil {
				t.Fatal(err)
			}
			if err := stA.Flush(); err != nil {
				t.Fatal(err)
			}

			action := fault.Action{Kind: fault.KindError}
			if strings.HasSuffix(pt, "file/write") {
				action = fault.Action{Kind: fault.KindTorn, Bytes: 8}
			}
			if err := fault.Arm(pt, action); err != nil {
				t.Fatal(err)
			}
			// Store B goes through the lineage write path. Points that
			// path bypasses (the single-record Put — lineage
			// group-commits via PutBatch) are driven directly so every
			// registered point proves out.
			fsB, err := kvstore.OpenFile(pathB)
			if err != nil {
				t.Fatal(err)
			}
			stB, err := OpenStore(fsB, strat, tOutSpace, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			if err := stB.WritePairs(toStorePairs(strat, pairsB)); err == nil {
				_ = stB.Flush()
			}
			if fault.Hits(pt) == 0 {
				if err := fsB.Put([]byte("!direct"), []byte("x")); err == nil {
					_ = fsB.Sync()
				}
			}
			if fault.Hits(pt) == 0 && strings.HasPrefix(pt, "kvstore/file/") {
				// The wrapped file's Sync is unreachable through the
				// store: FileStore deliberately never fsyncs its log
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
				// A store that reopens empty is a fresh one: its Flush seals
				// it. On a store that reopens sealed Flush is a no-op.
				if err := st.Flush(); err != nil {
					t.Fatal(err)
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
// value. This is the foundation of the self-healing path: a store
// rebuilt from re-execution is indistinguishable from one that never
// saw corruption. The container encoder's per-tile form choice is
// deterministic, so the property holds for every record. A Many store's
// index is built in id order, so one reopened without its meta sidecar
// rebuilds, from its records alone, the very trees its Flush built, and
// charges their exact encoded size.
func TestRebuildByteIdentical(t *testing.T) {
	for _, strat := range []Strategy{StratFullOne, StratFullMany} {
		t.Run(strat.ID(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			pairs := randomPairs(rng, 80)
			var trees [][]byte
			build := func(path string) map[string]string {
				fs, err := kvstore.OpenFile(path)
				if err != nil {
					t.Fatal(err)
				}
				st, err := OpenStore(fs, strat, tOutSpace, tInSpaces)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.WritePairs(toStorePairs(strat, pairs[:40])); err != nil {
					t.Fatal(err)
				}
				if err := st.WritePairs(toStorePairs(strat, pairs[40:])); err != nil {
					t.Fatal(err)
				}
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
				trees = trees[:0]
				for _, tr := range st.trees {
					trees = append(trees, tr.Encode())
				}
				m := make(map[string]string)
				if err := fs.Scan(func(k, v []byte) bool {
					m[string(k)] = string(v)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if err := fs.Close(); err != nil {
					t.Fatal(err)
				}
				return m
			}
			a := build(filepath.Join(t.TempDir(), "a.log"))
			pathB := filepath.Join(t.TempDir(), "b.log")
			b := build(pathB)
			if len(a) != len(b) {
				t.Fatalf("rebuild record counts differ: %d vs %d", len(a), len(b))
			}
			for k, va := range a {
				if vb, ok := b[k]; !ok || vb != va {
					t.Fatalf("rebuild differs at key %q", k)
				}
			}

			if err := os.Remove(pathB + ".meta"); err != nil {
				t.Fatal(err)
			}
			fs, err := kvstore.OpenFile(pathB)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			st, err := OpenStore(fs, strat, tOutSpace, tInSpaces)
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
			if got, want := st.SizeBytes(), fs.SizeBytes()+int64(idx); got != want {
				t.Fatalf("rebuilt SizeBytes = %d, want log %d + index %d", got, fs.SizeBytes(), idx)
			}
		})
	}
}

// rebuildMeta appends a Many store's boxes in its scan's order. A MemStore
// scans keys in byte order, in which uvarint block keys past block 255 are
// not in id order, so the rebuilt tree is the one Flush built only because
// the bulk load sorts its items by id first.
func TestRebuildSortsMemStoreScanOrder(t *testing.T) {
	pairs := randomPairs(rand.New(rand.NewSource(19)), 257*blockIDs+1)
	kv := kvstore.NewMem()
	st, err := OpenStore(kv, StratFullMany, tOutSpace, tInSpaces)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WritePairs(pairs); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	// The copy holds every key but no meta blob, so opening it rebuilds.
	var kvs []kvstore.KV
	if err := kv.Scan(func(k, v []byte) bool {
		kvs = append(kvs, kvstore.KV{Key: bytes.Clone(k), Val: bytes.Clone(v)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	cp := kvstore.NewMem()
	if err := cp.PutBatch(kvs); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := OpenStore(cp, StratFullMany, tOutSpace, tInSpaces)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt.trees[0].Encode(), st.trees[0].Encode()) {
		t.Fatal("tree rebuilt from a MemStore scan encodes unlike the one Flush built")
	}
}
