package lineage

import (
	"math/rand"
	"sync"
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
