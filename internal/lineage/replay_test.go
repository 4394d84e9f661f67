package lineage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"subzero/internal/bitmap"
	"subzero/internal/fault"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
)

// fillRecCache pads a store's record cache with placeholder entries under
// ids no pair holds, until only room slots are left, so a test reaches the
// full-cache regime without writing recCacheLimit pairs.
func fillRecCache(st *Store, room int) {
	st.recMu.Lock()
	defer st.recMu.Unlock()
	for i := uint64(0); len(st.recCache) < recCacheLimit-room; i++ {
		st.recCache[1<<40+i] = &record{}
	}
}

// A FullOne lookup applies a record only once all of it has validated. The
// query executor keeps a saturated intermediate after a corrupt lookup
// ("lookups only ever set true positives"), so a record whose applied side
// reached dst before its corrupt tail was noticed would become a wrong
// answer. The planted record's outs and first input set are valid and its
// last input set is truncated; the applied side (input 0 backward, outs
// forward) comes before the damage. Both replays are covered: the decode
// the cache admits while it has room, and the in-place replay once it is
// full.
func TestCorruptRecordNeverHalfApplies(t *testing.T) {
	planted := RegionPair{Out: []uint64{1, 5, 9}, Ins: [][]uint64{{100, 101, 102, 120, 121, 122, 140, 141, 142}, {3, 4}}}
	others := []RegionPair{
		{Out: []uint64{30, 31}, Ins: [][]uint64{{200, 201}, {7}}},
		{Out: []uint64{50}, Ins: [][]uint64{{300}, {9, 10}}},
	}
	val := appendRecord(nil, &planted)
	val = val[:len(val)-1] // the last cell of the last input set
	if _, err := decodeRecord(val); err == nil {
		t.Fatal("truncated record still decodes")
	}

	for _, strat := range []Strategy{StratFullOne, StratFullOneFwd} {
		for _, full := range []bool{false, true} {
			name := fmt.Sprintf("%s/cache-full=%v", strat.ID(), full)
			t.Run(name, func(t *testing.T) {
				kv := kvstore.NewMem()
				st := buildStore(t, kv, strat, append([]RegionPair{planted}, others...))
				plantRecord(t, kv, 0, val)
				if full {
					fillRecCache(st, 0)
				}
				var dst *bitmap.Bitmap
				var applied []uint64
				var err error
				if strat.Orient == BackwardOpt {
					q := bitmap.New(tOutSpace)
					q.SetAll()
					dst, applied = bitmap.New(tInSpaces[0]), planted.Ins[0]
					err = st.Backward(q, dst, 0, nil, nil, nil)
				} else {
					q := bitmap.New(tInSpaces[0])
					q.SetAll()
					dst, applied = bitmap.New(tOutSpace), planted.Out
					err = st.Forward(q, dst, 0, nil, nil)
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("lookup error = %v, want ErrCorrupt", err)
				}
				if !st.Degraded() {
					t.Fatal("store not degraded after a corrupt record")
				}
				for _, c := range applied {
					if dst.Get(c) {
						t.Fatalf("cell %d of the corrupt record reached dst", c)
					}
				}
			})
		}
	}
}

// hidingStore answers every batched read of one key as absent, leaving the
// cell entries that reference its records dangling.
type hidingStore struct {
	kvstore.Store
	hide string
}

func (h hidingStore) GetBatch(keys [][]byte, fn func(int, []byte, bool) bool) error {
	return h.Store.GetBatch(keys, func(i int, val []byte, ok bool) bool {
		return fn(i, val, ok && string(keys[i]) != h.hide)
	})
}

// A cell entry referencing a pair id the hashtable does not hold is
// corruption on the FullOne fetch path in both directions, whether the id's
// block lacks its record or the whole block is missing.
func TestDanglingPairIDDegradesStore(t *testing.T) {
	pairs := []RegionPair{
		{Out: []uint64{1, 5, 9}, Ins: [][]uint64{{0, 2}, {7}}},
		{Out: []uint64{30, 31}, Ins: [][]uint64{{40}, {3, 4}}},
	}
	for _, strat := range []Strategy{StratFullOne, StratFullOneFwd} {
		t.Run(strat.ID(), func(t *testing.T) {
			for _, hideBlock := range []bool{false, true} {
				kv := kvstore.NewMem()
				var into kvstore.Store = kv
				if hideBlock {
					into = hidingStore{kv, string(appendBlockKey(nil, 0))}
				}
				st := buildStore(t, into, strat, pairs)
				if !hideBlock {
					plantRecord(t, kv, 1, nil)
				}
				var err error
				if strat.Orient == BackwardOpt {
					q := bitmap.New(tOutSpace)
					q.SetAll()
					err = st.Backward(q, bitmap.New(tInSpaces[0]), 0, nil, nil, nil)
				} else {
					q := bitmap.New(tInSpaces[0])
					q.SetAll()
					err = st.Forward(q, bitmap.New(tOutSpace), 0, nil, nil)
				}
				if !errors.Is(err, ErrCorrupt) || !st.Degraded() {
					t.Fatalf("block hidden %v: lookup error = %v, degraded = %v; want ErrCorrupt and degraded", hideBlock, err, st.Degraded())
				}
			}
		})
	}
}

// In-place replay is the decode path minus the decode: for any bytes and
// any side of a Full store's record it must accept exactly what loadRecord
// accepts and set exactly the cells the decoded record's side holds — and
// nothing at all when it rejects.
func FuzzReplayRecord(f *testing.F) {
	for _, val := range staleGoldens {
		f.Add(val)
	}
	dense := make([]uint64, 0, 1500)
	for c := uint64(1000); c < 2500; c++ {
		dense = append(dense, c)
	}
	strided := make([]uint64, 0, 512)
	for c := uint64(4096); c < 5120; c += 2 {
		strided = append(strided, c)
	}
	for _, rp := range []RegionPair{
		{Out: []uint64{1, 5, 9}, Ins: [][]uint64{{0, 2}, {7}}}, // the golden full record
		{Out: []uint64{4}, Payload: []byte{9, 8, 7}},
		{Out: dense, Ins: [][]uint64{{3, 40, 41, 42, 900, 2000, 2002, 2004, 5000, 60000}, strided}},
		{Out: strided, Ins: [][]uint64{dense, {}}},
		{Out: []uint64{1, 5, 9}, Ins: [][]uint64{{0, 2}}},
	} {
		f.Add(appendRecord(nil, &rp))
	}
	f.Add([]byte{})
	f.Add([]byte{4, 0x80})

	st := buildStore(f, kvstore.NewMem(), StratFullOne)
	space := grid.NewSpace(grid.Shape{64, 1024})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, lerr := st.loadRecord(data)
		for side := outSide; side < len(tInSpaces); side++ {
			got := bitmap.New(space)
			rerr := st.replayRecord(data, side, got)
			if (lerr == nil) != (rerr == nil) {
				t.Fatalf("side %d: loadRecord error %v, replay error %v", side, lerr, rerr)
			}
			if rerr != nil {
				if !errors.Is(rerr, ErrCorrupt) || got.Count() != 0 {
					t.Fatalf("side %d: rejected record set %d cells (err %v)", side, got.Count(), rerr)
				}
				continue
			}
			set := rec.side(side)
			if set.size() > 1<<16 {
				continue // full tiles: too many cells to materialize
			}
			want := bitmap.New(space)
			want.SetCells(set.cells(nil))
			if !bitmapsEqual(got, want) {
				t.Fatalf("side %d: replay set %d cells, decoded record %d", side, got.Count(), want.Count())
			}
		}
	})
}

// Hot and cold FullOne lookups race each other while the record cache
// fills. Every answer must equal the answer of a second store built from
// the same pairs. Admission happens after GetBatch returns, so recMu is
// never taken inside a kvstore callback and the lock order stays
// recMu → kvstore; -race checks the cache and the shared records.
func TestFullOneLookupsRaceCacheFill(t *testing.T) {
	for _, strat := range []Strategy{StratFullOne, StratFullOneFwd} {
		t.Run(strat.ID(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			pairs := randomPairs(rng, 400)
			ref := buildStore(t, kvstore.NewMem(), strat, pairs)
			st := buildStore(t, kvstore.NewMem(), strat, pairs)
			// Leave the cache room for about half the records.
			fillRecCache(st, 200)

			// lookup runs the store's own direction over input 0.
			lookup := func(s *Store, q *bitmap.Bitmap) (*bitmap.Bitmap, error) {
				if strat.Orient == BackwardOpt {
					dst := bitmap.New(tInSpaces[0])
					return dst, s.Backward(q, dst, 0, nil, nil, nil)
				}
				dst := bitmap.New(tOutSpace)
				return dst, s.Forward(q, dst, 0, nil, nil)
			}
			qSpace := tOutSpace
			if strat.Orient == ForwardOpt {
				qSpace = tInSpaces[0]
			}
			hot := randomQuery(rng, qSpace, 80)
			colds := make([]*bitmap.Bitmap, 16)
			for i := range colds {
				colds[i] = randomQuery(rng, qSpace, 40)
			}
			// check fails an answer that differs from the reference store's.
			check := func(q, got *bitmap.Bitmap) error {
				want, err := lookup(ref, q)
				if err != nil {
					return err
				}
				if !bitmapsEqual(got, want) {
					return fmt.Errorf("answer of %d cells, reference store %d", got.Count(), want.Count())
				}
				return nil
			}

			var wg sync.WaitGroup
			errCh := make(chan error, 4)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 24; i++ {
						q := hot
						if (i+g)%2 == 1 {
							q = colds[(i*4+g)%len(colds)]
						}
						got, err := lookup(st, q)
						if err == nil {
							err = check(q, got)
						}
						if err != nil {
							errCh <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}

			all := bitmap.New(qSpace)
			all.SetAll() // touches every record, so the cache ends full
			got, err := lookup(st, all)
			if err == nil {
				err = check(all, got)
			}
			if err != nil {
				t.Fatal(err)
			}
			st.recMu.Lock()
			n := len(st.recCache)
			st.recMu.Unlock()
			if n != recCacheLimit {
				t.Fatalf("record cache holds %d records, want it filled to %d", n, recCacheLimit)
			}
		})
	}
}

// A FullOne lookup that panics mid-batch still releases its pooled
// scratch, with the batch's cache misses in it. The next lookup, on
// another store whose pair ids overlap, must not fetch and apply them.
func TestPanickedLookupLeavesNoBatch(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(12))
	open := func() *Store {
		st := buildStore(t, kvstore.NewMem(), StratFullOne, randomPairs(rng, 60))
		fillRecCache(st, 0) // every fetched record stays a miss
		return st
	}
	a, b := open(), open()
	q := bitmap.New(tOutSpace)
	q.SetAll()
	if err := fault.Arm("lineage/lookup/decode", fault.Action{Kind: fault.KindPanic, Count: 1}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the armed lookup did not panic")
			}
		}()
		_ = a.Backward(q, bitmap.New(tInSpaces[0]), 0, nil, nil, nil)
	}()
	bq := bitmap.New(tOutSpace)
	bq.Set(0)
	got, want := bitmap.New(tInSpaces[0]), bitmap.New(tInSpaces[0])
	if err := b.Backward(bq, got, 0, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Backward(bq, want, 0, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !bitmapsEqual(got, want) {
		t.Fatalf("lookup after a panicked one answers %d cells, want %d", got.Count(), want.Count())
	}
}
