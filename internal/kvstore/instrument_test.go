package kvstore

import (
	"fmt"
	"testing"

	"subzero/internal/obs"
)

// The Manager wraps every store in instrumented once metrics are attached,
// so its GetBatch sits under every One-encoding lookup batch: wrapping the
// caller's callback must allocate nothing, and the counters must still see
// every batch, key and value byte.
func TestInstrumentedGetBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled byte counter: sync.Pool drops Puts at random under -race")
	}
	const batch, runs = 256, 50
	set := obs.NewSet()
	s := Instrument(NewMem(), &set.KV)
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
		t.Fatalf("instrumented GetBatch of %d keys allocates %v times, want 0", batch, n)
	}
	calls := int64(runs + 1) // AllocsPerRun warms up with one extra call
	if hits != len(kvs)*int(calls) {
		t.Fatalf("callback saw %d hits, want %d", hits, len(kvs)*int(calls))
	}
	kv := &set.KV
	if got := kv.GetBatches.Load(); got != calls {
		t.Errorf("GetBatches = %d, want %d", got, calls)
	}
	if got, want := kv.KeysRead.Load(), calls*batch; got != want {
		t.Errorf("KeysRead = %d, want %d", got, want)
	}
	if got, want := kv.BytesRead.Load(), calls*int64(len(kvs)*10); got != want {
		t.Errorf("BytesRead = %d, want %d", got, want)
	}
}
