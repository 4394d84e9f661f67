package lineage

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subzero/internal/bitmap"
	"subzero/internal/kvstore"
)

// A lookup holds the store's gate shared for its whole span, so a write
// that starts while it is in flight waits for it — with no coordinator
// attached, the case the old lock-free fast path left open to R-tree
// inserts under a running search. The test needs no race detector: the
// lookup parks inside its abort hook (polled before the index walk in
// candidateIDs for Many encodings, per probe batch in lookupFullOne for
// One), WritePairs
// starts on another goroutine, and must not return until the lookup is
// released.
func TestWriteWaitsForInFlightLookup(t *testing.T) {
	for _, strat := range []Strategy{StratFullMany, StratFullOne} {
		t.Run(strat.ID(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			pairs := randomPairs(rng, 200)
			first, second := pairs[:100], pairs[100:]
			q := randomQuery(rng, tOutSpace, 60)

			serial, err := OpenStore(kvstore.NewMem(), strat, tOutSpace, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			if err := serial.WritePairs(pairs); err != nil {
				t.Fatal(err)
			}
			st, err := OpenStore(kvstore.NewMem(), strat, tOutSpace, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.WritePairs(first); err != nil {
				t.Fatal(err)
			}

			parked, release := make(chan struct{}), make(chan struct{})
			var park, unpark sync.Once
			defer unpark.Do(func() { close(release) })
			lookupDone := make(chan error, 1)
			go func() {
				dst := bitmap.New(tInSpaces[0])
				lookupDone <- st.Backward(q, dst, 0, nil, nil, func() bool {
					park.Do(func() {
						close(parked)
						<-release
					})
					return false
				})
			}()
			<-parked

			writeDone := make(chan error, 1)
			go func() { writeDone <- st.WritePairs(second) }()
			select {
			case err := <-writeDone:
				t.Fatalf("WritePairs returned (err = %v) while a lookup was in flight", err)
			case <-time.After(100 * time.Millisecond):
			}
			unpark.Do(func() { close(release) })
			if err := <-lookupDone; err != nil {
				t.Fatal(err)
			}
			if err := <-writeDone; err != nil {
				t.Fatal(err)
			}

			got, want := bitmap.New(tInSpaces[0]), bitmap.New(tInSpaces[0])
			if err := st.Backward(q, got, 0, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := serial.Backward(q, want, 0, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			if !bitmapsEqual(got, want) {
				t.Fatal("settled answer differs from a serially built store")
			}
		})
	}
}

// parkingStore parks the first PutBatch after armed is set until release
// is closed: a shard worker stuck committing a batch's records.
type parkingStore struct {
	kvstore.Store
	armed           atomic.Bool
	parked, release chan struct{}
}

func (p *parkingStore) PutBatch(kvs []kvstore.KV) error {
	if p.armed.CompareAndSwap(true, false) {
		close(p.parked)
		<-p.release
	}
	return p.Store.PutBatch(kvs)
}

// A lookup during ingest answers from the batches already applied and
// never waits on the pipeline: with one shard worker parked inside the
// record commit of a queued batch, Backward still returns promptly, with
// every cell of the applied batch and nothing the finished store lacks.
// Once the writer's Flush drains the pipeline the answer is exact.
func TestLookupDoesNotWaitForParkedShard(t *testing.T) {
	for _, strat := range []Strategy{StratFullOne, StratFullMany} {
		t.Run(strat.ID(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			pairs := randomPairs(rng, 200)
			first, second := pairs[:100], pairs[100:]
			q := randomQuery(rng, tOutSpace, 60)
			answer := func(pairs []RegionPair) *bitmap.Bitmap {
				st, err := OpenStore(kvstore.NewMem(), strat, tOutSpace, tInSpaces)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.WritePairs(pairs); err != nil {
					t.Fatal(err)
				}
				dst := bitmap.New(tInSpaces[0])
				if err := st.Backward(q, dst, 0, nil, nil, nil); err != nil {
					t.Fatal(err)
				}
				return dst
			}
			applied, final := answer(first), answer(pairs)

			coord := NewCoordinator(context.Background(), IngestConfig{Shards: 2, Depth: 2}, nil)
			defer coord.Close()
			ps := &parkingStore{Store: kvstore.NewMem(), parked: make(chan struct{}), release: make(chan struct{})}
			var unpark sync.Once
			defer unpark.Do(func() { close(ps.release) })
			st, err := OpenStore(ps, strat, tOutSpace, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			w := NewWriter(tOutSpace, tInSpaces, []*Store{st}, nil, nil)
			w.UseIngest(coord)
			if err := coord.Enqueue([]*Store{st}, first); err != nil {
				t.Fatal(err)
			}
			if err := coord.Barrier(); err != nil {
				t.Fatal(err)
			}
			ps.armed.Store(true)
			if err := coord.Enqueue([]*Store{st}, second); err != nil {
				t.Fatal(err)
			}
			<-ps.parked

			mid := bitmap.New(tInSpaces[0])
			done := make(chan error, 1)
			go func() { done <- st.Backward(q, mid, 0, nil, nil, nil) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Backward waited on a shard worker parked in a queued batch")
			}
			applied.Iterate(func(idx uint64) bool {
				if !mid.Get(idx) {
					t.Fatalf("mid-ingest answer misses cell %d of the applied batch", idx)
				}
				return true
			})
			mid.Iterate(func(idx uint64) bool {
				if !final.Get(idx) {
					t.Fatalf("mid-ingest answer holds cell %d the finished store lacks", idx)
				}
				return true
			})

			unpark.Do(func() { close(ps.release) })
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			got := bitmap.New(tInSpaces[0])
			if err := st.Backward(q, got, 0, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			if !bitmapsEqual(got, final) {
				t.Fatal("answer after Flush differs from a serially built store")
			}
		})
	}
}
