package kvstore

import (
	"fmt"
	"testing"

	"subzero/internal/obs"
)

// countedStores builds one store of each backing counting into its own
// obs set, as the Manager hands them out.
func countedStores(t *testing.T) map[string]*LogStore {
	t.Helper()
	out := make(map[string]*LogStore)
	for name, s := range storesUnderTest(t) {
		ls := s.(*LogStore)
		ls.obs = &obs.NewSet().KV
		out[name] = ls
	}
	return out
}

// A store's GetBatch sits under every One-encoding lookup batch: with
// counters attached it must still allocate nothing, and the counters must
// see every batch, key and value byte.
func TestCountedGetBatchAllocFree(t *testing.T) {
	const batch, runs = 256, 50
	for name, s := range countedStores(t) {
		t.Run(name, func(t *testing.T) {
			keys := make([][]byte, batch)
			kvs := make([]KV, batch/2) // half the keys hit
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("key-%04d", i))
				if i%2 == 0 {
					kvs[i/2] = KV{Key: keys[i], Val: make([]byte, 10)}
				}
			}
			if err := s.PutBatch(kvs); err != nil {
				t.Fatal(err)
			}

			hits := 0
			onVal := func(_ int, _ []byte, ok bool) bool {
				if ok {
					hits++
				}
				return true
			}
			if n := testing.AllocsPerRun(runs, func() {
				if err := s.GetBatch(keys, onVal); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("counted GetBatch of %d keys allocates %v times, want 0", batch, n)
			}
			calls := int64(runs + 1) // AllocsPerRun warms up with one extra call
			if hits != len(kvs)*int(calls) {
				t.Fatalf("callback saw %d hits, want %d", hits, len(kvs)*int(calls))
			}
			kv := s.obs
			if got := kv.GetBatches.Load(); got != calls {
				t.Errorf("GetBatches = %d, want %d", got, calls)
			}
			if got, want := kv.KeysRead.Load(), calls*batch; got != want {
				t.Errorf("KeysRead = %d, want %d", got, want)
			}
			if got, want := kv.BytesRead.Load(), calls*int64(len(kvs)*10); got != want {
				t.Errorf("BytesRead = %d, want %d", got, want)
			}
			if got := kv.GetBatchLatency.Snapshot().Count; got != calls {
				t.Errorf("GetBatchLatency holds %d observations, want %d", got, calls)
			}
		})
	}
}

// Writes and scans count with the meanings the obs set documents: batches
// and keys per call, value bytes only, and a scan's keys and bytes as it
// visits them.
func TestStoreCounts(t *testing.T) {
	for name, s := range countedStores(t) {
		t.Run(name, func(t *testing.T) {
			kv := s.obs
			if err := s.PutBatch([]KV{{Key: []byte("a"), Val: []byte("123")}, {Key: []byte("b"), Val: []byte("45")}}); err != nil {
				t.Fatal(err)
			}
			if err := s.PutBatch([]KV{{Key: []byte("a"), Val: []byte("6")}}); err != nil {
				t.Fatal(err)
			}
			if kv.PutBatches.Load() != 2 || kv.KeysWritten.Load() != 3 || kv.BytesWritten.Load() != 6 {
				t.Fatalf("after two batches: %d batches, %d keys, %d bytes written; want 2, 3, 6",
					kv.PutBatches.Load(), kv.KeysWritten.Load(), kv.BytesWritten.Load())
			}
			if got := kv.PutBatchLatency.Snapshot().Count; got != 2 {
				t.Fatalf("PutBatchLatency holds %d observations, want 2", got)
			}
			if err := s.Scan(func(_, _ []byte) bool { return true }); err != nil {
				t.Fatal(err)
			}
			if kv.Scans.Load() != 1 || kv.KeysRead.Load() != 2 || kv.BytesRead.Load() != 3 {
				t.Fatalf("after a scan: %d scans, %d keys, %d bytes read; want 1, 2, 3",
					kv.Scans.Load(), kv.KeysRead.Load(), kv.BytesRead.Load())
			}
		})
	}
}
