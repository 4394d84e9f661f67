package lineage

import (
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"subzero/internal/bitmap"
	"subzero/internal/kvstore"
)

// writeThrough pushes pairs through a Writer into the store, mirroring how
// the executor feeds lineage.
func writeThrough(t *testing.T, st *Store, strat Strategy, pairs []RegionPair) {
	t.Helper()
	var full, pay []*Store
	if strat.Mode == Full {
		full = []*Store{st}
	} else {
		pay = []*Store{st}
	}
	w := NewWriter(tOutSpace, tInSpaces, full, pay, nil)
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
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
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

// stagedRecords counts the records st holds staged in blocks not written
// yet.
func stagedRecords(st *Store) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.stage == nil {
		return 0
	}
	return st.stage.n
}

// A serial writer completes blocks in id order, so between WritePairs
// calls it stages fewer than one block's records, whatever the batch
// sizes, and its Flush writes them and leaves none.
func TestSerialStagingBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pairs := randomPairs(rng, 700)
	for _, strat := range []Strategy{StratFullOne, StratFullMany, StratPayMany} {
		t.Run(strat.ID(), func(t *testing.T) {
			kv := kvstore.NewMem()
			st, err := OpenStore(kv, strat, tOutSpace, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			sp := toStorePairs(strat, pairs)
			for lo, n := 0, 1; lo < len(sp); lo, n = lo+n, n*3%157+1 {
				hi := min(lo+n, len(sp))
				if err := st.WritePairs(sp[lo:hi]); err != nil {
					t.Fatal(err)
				}
				if got, want := stagedRecords(st), hi%blockIDs; got != want {
					t.Fatalf("after %d pairs: %d records staged, want %d", hi, got, want)
				}
				if got, want := len(blockValues(t, kv)), hi/blockIDs; got != want {
					t.Fatalf("after %d pairs: %d blocks written, want %d", hi, got, want)
				}
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := stagedRecords(st); got != 0 {
				t.Fatalf("%d records staged after Flush", got)
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

// Satellite regression: concurrent writers aggregating durations must not
// under-report — the counters are atomic, so N goroutines adding D each
// yield exactly N*D.
func TestAddWriteTimeConcurrentAccounting(t *testing.T) {
	st, err := OpenStore(kvstore.NewMem(), StratFullOne, tOutSpace, tInSpaces)
	if err != nil {
		t.Fatal(err)
	}
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				st.AddWriteTime(time.Microsecond)
				st.AddFlushTime(3 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	ss := st.Stats()
	want := workers * iters * time.Microsecond
	if ss.WriteTime != want || ss.FlushTime != 3*want {
		t.Fatalf("durations under-reported: write=%v flush=%v want %v/%v",
			ss.WriteTime, ss.FlushTime, want, 3*want)
	}
}

// Satellite regression: the encoded stats record — and therefore
// SizeBytes and LineageBytes — must not vary with wall-clock timing. All
// duration fields are fixed-width.
func TestStatsEncodingTimingIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var wantLen int
	for trial := 0; trial < 50; trial++ {
		st, err := OpenStore(kvstore.NewMem(), StratFullOne, tOutSpace, tInSpaces)
		if err != nil {
			t.Fatal(err)
		}
		st.addVolumes(12, 340, 560, 0) // fixed volumes
		st.AddWriteTime(time.Duration(rng.Int63n(int64(time.Hour))))
		st.AddFlushTime(time.Duration(rng.Int63n(int64(time.Hour))))
		enc := st.encodeStats()
		if trial == 0 {
			wantLen = len(enc)
		} else if len(enc) != wantLen {
			t.Fatalf("stats record length varies with timing: %d vs %d", len(enc), wantLen)
		}
		// Round-trip through decode preserves every field.
		st2, err := OpenStore(kvstore.NewMem(), StratFullOne, tOutSpace, tInSpaces)
		if err != nil {
			t.Fatal(err)
		}
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
			st, err := OpenStore(fs, strat, tOutSpace, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			writeThrough(t, st, strat, pairs)
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
			if next := st.nextPair.Load(); next != uint64(wantPairs) {
				t.Fatalf("rebuilt pair counter = %d, want %d", next, wantPairs)
			}
			if got, logical := st.NumPairs(), st.LogicalBytes(); got != wantPairs || logical != wantLogical {
				t.Fatalf("rebuilt store reports %d pairs, %d logical B; want %d, %d", got, logical, wantPairs, wantLogical)
			}
		})
	}
}
