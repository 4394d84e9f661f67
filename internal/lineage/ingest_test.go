package lineage

import (
	"math/rand"
	"testing"
	"time"

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

// Satellite regression: SizeBytes — and therefore LineageBytes — must
// not vary with wall-clock timing. The write statistics' durations are
// kept in memory and charged nowhere.
func TestStatsEncodingTimingIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, strat := range []Strategy{StratFullOne, StratFullMany} {
		st := writeThrough(t, kvstore.NewMem(), strat, randomPairs(rng, 40))
		wantSize, wantLogical := st.SizeBytes(), st.LogicalBytes()
		for trial := 0; trial < 50; trial++ {
			st.stats.WriteTime = time.Duration(rng.Int63n(int64(time.Hour)))
			st.stats.FlushTime = time.Duration(rng.Int63n(int64(time.Hour)))
			if got, logical := st.SizeBytes(), st.LogicalBytes(); got != wantSize || logical != wantLogical {
				t.Fatalf("%s: size %d B, logical %d B vary with timing (want %d, %d)", strat, got, logical, wantSize, wantLogical)
			}
		}
	}
}
