package lineage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subzero/internal/bitmap"
	"subzero/internal/kvstore"
)

// writeThrough pushes pairs through a Writer (optionally via a sharded
// coordinator) into the store, mirroring how the executor feeds lineage.
func writeThrough(t *testing.T, st *Store, strat Strategy, pairs []RegionPair, coord *Coordinator) {
	t.Helper()
	var full, pay []*Store
	if strat.Mode == Full {
		full = []*Store{st}
	} else {
		pay = []*Store{st}
	}
	w := NewWriter(tOutSpace, tInSpaces, full, pay, nil)
	if coord != nil {
		w.UseIngest(coord)
	}
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
		// Force small blocks so the pipeline sees many batches, not one.
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
	n := 0
	for _, stage := range st.staged {
		n += bits.OnesCount64(stage.held)
	}
	return n
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

// Sharded ingest must produce a store that answers every query exactly
// like a serially written one — and, because pair ids are reserved on the
// enqueueing thread, one whose size accounting matches byte for byte.
func TestShardedIngestMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pairs := randomPairs(rng, 300)
	for _, strat := range allStoreStrategies() {
		for _, shards := range []int{2, 4, 7} {
			t.Run(fmt.Sprintf("%s/shards=%d", strat.ID(), shards), func(t *testing.T) {
				serialKV, shardedKV := kvstore.NewMem(), kvstore.NewMem()
				serial, err := OpenStore(serialKV, strat, tOutSpace, tInSpaces)
				if err != nil {
					t.Fatal(err)
				}
				writeThrough(t, serial, strat, pairs, nil)

				coord := NewCoordinator(context.Background(), IngestConfig{Shards: shards, Depth: 2}, nil)
				defer coord.Close()
				sharded, err := OpenStore(shardedKV, strat, tOutSpace, tInSpaces)
				if err != nil {
					t.Fatal(err)
				}
				writeThrough(t, sharded, strat, pairs, coord)

				if got, want := sharded.NumPairs(), serial.NumPairs(); got != want {
					t.Fatalf("sharded NumPairs = %d, serial = %d", got, want)
				}
				ss, sw := sharded.Stats(), serial.Stats()
				if ss.OutCells != sw.OutCells || ss.InCells != sw.InCells || ss.PayloadBytes != sw.PayloadBytes {
					t.Fatalf("volume stats diverge: sharded %+v serial %+v", ss, sw)
				}
				if ss.Shards != shards {
					t.Fatalf("sharded store reports %d shards, want %d", ss.Shards, shards)
				}
				if got, want := sharded.SizeBytes(), serial.SizeBytes(); got != want {
					t.Fatalf("sharded SizeBytes = %d, serial = %d (id assignment nondeterministic?)", got, want)
				}
				// Workers fill a block's stage in any order, and the block is
				// written in id order: every block value is the serial one.
				wantBlocks, gotBlocks := blockValues(t, serialKV), blockValues(t, shardedKV)
				if len(gotBlocks) != len(wantBlocks) {
					t.Fatalf("sharded store holds %d blocks, serial %d", len(gotBlocks), len(wantBlocks))
				}
				for k, v := range wantBlocks {
					if gotBlocks[k] != v {
						t.Fatalf("block %x: sharded value differs from the serial one", k)
					}
				}
				// Flush bulk-loads each index in id order, so its bytes do not
				// depend on which worker appended which pair.
				for i := range serial.trees {
					if !bytes.Equal(sharded.trees[i].Encode(), serial.trees[i].Encode()) {
						t.Fatalf("slot %d: sharded index encodes unlike the serial one", i)
					}
				}

				var mapp PayloadFn
				if strat.Mode == Pay || strat.Mode == Comp {
					mapp = testMapP
				}
				for trial := 0; trial < 10; trial++ {
					q := randomQuery(rng, tOutSpace, 40)
					a, b := bitmap.New(tInSpaces[0]), bitmap.New(tInSpaces[0])
					if err := serial.Backward(q, a, 0, mapp, nil, nil); err != nil {
						t.Fatal(err)
					}
					if err := sharded.Backward(q, b, 0, mapp, nil, nil); err != nil {
						t.Fatal(err)
					}
					if !bitmapsEqual(a, b) {
						t.Fatalf("trial %d: sharded backward answer differs from serial", trial)
					}
					fq := randomQuery(rng, tInSpaces[0], 40)
					fa, fb := bitmap.New(tOutSpace), bitmap.New(tOutSpace)
					if err := serial.Forward(fq, fa, 0, mapp, nil); err != nil {
						t.Fatal(err)
					}
					if err := sharded.Forward(fq, fb, 0, mapp, nil); err != nil {
						t.Fatal(err)
					}
					if !bitmapsEqual(fa, fb) {
						t.Fatalf("trial %d: sharded forward answer differs from serial", trial)
					}
				}
			})
		}
	}
}

// failingStore errors on the Nth record write, whichever worker gets it.
type failingStore struct {
	kvstore.Store
	writes atomic.Int64
	failAt int64
}

var errInjected = errors.New("injected write failure")

func (f *failingStore) Put(key, val []byte) error {
	if f.writes.Add(1) >= f.failAt {
		return errInjected
	}
	return f.Store.Put(key, val)
}

func (f *failingStore) PutBatch(kvs []kvstore.KV) error {
	if f.writes.Add(int64(len(kvs))) >= f.failAt {
		return errInjected
	}
	return kvstore.PutBatch(f.Store, kvs) // falls back to per-key Puts... but counted above
}

// A shard worker failure must reach the operator through the writer, at
// the latest at the flush barrier.
func TestIngestErrorPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pairs := randomPairs(rng, 200)
	coord := NewCoordinator(context.Background(), IngestConfig{Shards: 3, Depth: 2}, nil)
	defer coord.Close()
	// The second of the three blocks the 200 pairs fill is written by a
	// shard worker, and fails.
	fs := &failingStore{Store: kvstore.NewMem(), failAt: 2}
	st, err := OpenStore(fs, StratFullOne, tOutSpace, tInSpaces)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(tOutSpace, tInSpaces, []*Store{st}, nil, nil)
	w.UseIngest(coord)
	var sawErr error
	for _, rp := range pairs {
		if err := w.LWrite(rp.Out, rp.Ins...); err != nil {
			sawErr = err
			break
		}
	}
	if sawErr == nil {
		sawErr = w.Flush()
	}
	if !errors.Is(sawErr, errInjected) {
		t.Fatalf("injected shard failure did not propagate, got %v", sawErr)
	}
	if !errors.Is(coord.Err(), errInjected) {
		t.Fatalf("coordinator did not latch the failure: %v", coord.Err())
	}
}

// Cancelling the run's context must fail the pipeline with a wrapped
// ctx.Err(), unblocking producers stuck in backpressure.
func TestIngestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pairs := randomPairs(rng, 300)
	ctx, cancel := context.WithCancel(context.Background())
	coord := NewCoordinator(ctx, IngestConfig{Shards: 2, Depth: 1}, nil)
	defer coord.Close()
	st, err := OpenStore(kvstore.NewMem(), StratFullOne, tOutSpace, tInSpaces)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(tOutSpace, tInSpaces, []*Store{st}, nil, nil)
	w.UseIngest(coord)
	for _, rp := range pairs[:100] {
		if err := w.LWrite(rp.Out, rp.Ins...); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	var sawErr error
	for _, rp := range pairs[100:] {
		if sawErr = w.LWrite(rp.Out, rp.Ins...); sawErr != nil {
			break
		}
	}
	if sawErr == nil {
		sawErr = w.Flush()
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("cancellation did not propagate through the writer, got %v", sawErr)
	}
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
				st.AddEnqueueTime(2 * time.Microsecond)
				st.AddFlushTime(3 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	ss := st.Stats()
	want := workers * iters * time.Microsecond
	if ss.WriteTime != want || ss.EnqueueTime != 2*want || ss.FlushTime != 3*want {
		t.Fatalf("durations under-reported: write=%v enqueue=%v flush=%v want %v/%v/%v",
			ss.WriteTime, ss.EnqueueTime, ss.FlushTime, want, 2*want, 3*want)
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
		st.setShards(4)
		st.AddWriteTime(time.Duration(rng.Int63n(int64(time.Hour))))
		st.AddEnqueueTime(time.Duration(rng.Int63n(int64(time.Hour))))
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

// A store written and flushed by the pipeline must reopen with its meta
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
			writeThrough(t, st, strat, pairs, nil)
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
