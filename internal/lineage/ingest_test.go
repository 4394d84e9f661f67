package lineage

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"subzero/internal/bitmap"
	"subzero/internal/kvstore"
)

// writeThrough pushes pairs through a Writer into a builder over kv,
// mirroring how the executor feeds lineage, and returns the store.
func writeThrough(t *testing.T, kv kvstore.Store, strat Strategy, pairs []RegionPair) *Store {
	t.Helper()
	w := NewWriter(tOutSpace, tInSpaces, []*Builder{newBuilder(t, kv, strat)}, nil)
	for i, rp := range toStorePairs(strat, pairs) {
		var err error
		if strat.Mode == Full {
			err = w.LWrite(rp.Out, rp.Ins...)
		} else {
			err = w.LWritePayload(rp.Out, rp.Payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Force small batches, so the store sees many, not one.
		if i%16 == 15 {
			if err := w.flushBuffers(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return flushWriter(t, w)[0]
}

// flushWriter flushes w and returns its stores.
func flushWriter(t *testing.T, w *Writer) []*Store {
	t.Helper()
	stores, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return stores
}

// blockValues returns every record block value kv holds, by key.
func blockValues(t *testing.T, kv kvstore.Store) map[string]string {
	t.Helper()
	m := map[string]string{}
	if err := kv.Scan(func(k, v []byte) bool {
		if k[0] == keyBlock {
			m[string(k)] = string(v)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// A builder completes blocks in id order, so between WritePairs calls it
// stages fewer than one block's records, whatever the batch sizes, and its
// Flush writes them.
func TestSerialStagingBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pairs := randomPairs(rng, 700)
	for _, strat := range []Strategy{StratFullOne, StratFullMany, StratPayMany} {
		t.Run(strat.ID(), func(t *testing.T) {
			kv := kvstore.NewMem()
			b := newBuilder(t, kv, strat)
			sp := toStorePairs(strat, pairs)
			for lo, n := 0, 1; lo < len(sp); lo, n = lo+n, n*3%157+1 {
				hi := min(lo+n, len(sp))
				if err := b.WritePairs(sp[lo:hi]); err != nil {
					t.Fatal(err)
				}
				if got, want := b.stage.n, hi%blockIDs; got != want {
					t.Fatalf("after %d pairs: %d records staged, want %d", hi, got, want)
				}
				if got, want := len(blockValues(t, kv)), hi/blockIDs; got != want {
					t.Fatalf("after %d pairs: %d blocks written, want %d", hi, got, want)
				}
			}
			if _, err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, want := len(blockValues(t, kv)), (len(pairs)+blockIDs-1)/blockIDs; got != want {
				t.Fatalf("%d blocks after Flush, want %d", got, want)
			}
		})
	}
}

// corruptFile flips bytes in the middle of a file.
func corruptFile(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for i := len(buf) / 2; i < len(buf) && i < len(buf)/2+8; i++ {
		buf[i] ^= 0xA5
	}
	return os.WriteFile(path, buf, 0o644)
}

// Satellite regression: the encoded stats record — and therefore
// SizeBytes and LineageBytes — must not vary with wall-clock timing. All
// duration fields are fixed-width.
func TestStatsEncodingTimingIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var wantLen int
	for trial := 0; trial < 50; trial++ {
		st := Store{stats: StoreStats{
			Pairs: 12, OutCells: 340, InCells: 560, // fixed volumes
			WriteTime: time.Duration(rng.Int63n(int64(time.Hour))),
			FlushTime: time.Duration(rng.Int63n(int64(time.Hour))),
		}}
		enc := st.encodeStats()
		if trial == 0 {
			wantLen = len(enc)
		} else if len(enc) != wantLen {
			t.Fatalf("stats record length varies with timing: %d vs %d", len(enc), wantLen)
		}
		// Round-trip through decode preserves every field.
		var st2 Store
		st2.decodeStats(enc)
		if got, want := st2.Stats(), st.Stats(); got != want {
			t.Fatalf("stats round-trip = %+v, want %+v", got, want)
		}
	}
}

// A store written and flushed by a writer must reopen with its meta
// (pair counter, stats, indexes) loaded from the atomic blob, and a
// corrupted meta sidecar must degrade to a rebuild instead of a
// half-load — pairs stay queryable, and the rebuild counts them and their
// cells again from the records.
func TestStoreMetaBlobReopenAndRecovery(t *testing.T) {
	for _, strat := range []Strategy{StratFullOne, StratFullMany} {
		t.Run(strat.ID(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			pairs := randomPairs(rng, 80)
			dir := t.TempDir() + "/s.log"
			fs, err := kvstore.OpenFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			st := writeThrough(t, fs, strat, pairs)
			q := randomQuery(rng, tOutSpace, 50)
			want := bitmap.New(tInSpaces[0])
			if err := st.Backward(q, want, 0, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			wantPairs, wantLogical := st.NumPairs(), st.LogicalBytes()
			fs.Close()

			// Clean reopen: everything restored from the blob.
			fs, err = kvstore.OpenFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			st, err = OpenStore(fs, strat, tOutSpace, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			if st.NumPairs() != wantPairs {
				t.Fatalf("reopened NumPairs = %d, want %d", st.NumPairs(), wantPairs)
			}
			got := bitmap.New(tInSpaces[0])
			if err := st.Backward(q, got, 0, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			if !bitmapsEqual(got, want) {
				t.Fatal("reopened store answers differ")
			}
			fs.Close()

			// Corrupt the sidecar: the store must rebuild from records and
			// still answer correctly (stats are sacrificed, pairs are not).
			if err := corruptFile(dir + ".meta"); err != nil {
				t.Fatal(err)
			}
			fs, err = kvstore.OpenFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			st, err = OpenStore(fs, strat, tOutSpace, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			got2 := bitmap.New(tInSpaces[0])
			if err := st.Backward(q, got2, 0, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			if !bitmapsEqual(got2, want) {
				t.Fatal("rebuilt store answers differ after meta corruption")
			}
			if next := st.nextPair; next != uint64(wantPairs) {
				t.Fatalf("rebuilt pair counter = %d, want %d", next, wantPairs)
			}
			if got, logical := st.NumPairs(), st.LogicalBytes(); got != wantPairs || logical != wantLogical {
				t.Fatalf("rebuilt store reports %d pairs, %d logical B; want %d, %d", got, logical, wantPairs, wantLogical)
			}
		})
	}
}
