package lineage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"subzero/internal/bitmap"
	"subzero/internal/kvstore"
)

// The record encoding is pinned so accidental format drift is caught
// before it ships: a store rebuilt by the heal loop must be byte-identical
// to the one it replaces.
func TestEncodeGoldenRecords(t *testing.T) {
	got := encodeRecord(&RegionPair{Out: []uint64{1, 5, 9}, Ins: [][]uint64{{0, 2}, {7}}})
	// flags=4; every set is tiny, so all take the sparse-direct form
	// (count, nTiles=0, first+gaps): outs {1,5,9}, then 2 inputs {0,2}
	// and {7}.
	want := []byte{4, 3, 0, 1, 4, 4, 2, 2, 0, 0, 2, 1, 0, 7}
	if !bytes.Equal(got, want) {
		t.Fatalf("full record bytes = %v, want %v", got, want)
	}
	if rec, err := decodeRecord(got); err != nil {
		t.Fatal(err)
	} else if !equalU64(rec.outs.cells(nil), []uint64{1, 5, 9}) {
		t.Fatalf("sparse decode = %v", rec.outs.cells(nil))
	}

	// A full tile plus a 6-cell run in the next tile: count 1030 (2
	// varint bytes), 2 tiles; tile 0 is type full (header 0<<2|3, no
	// payload); tile 1 (gap 0) is type runs (header 0<<2|1) with one
	// (gap 10, len 6) run.
	out := make([]uint64, 0, 1030)
	for c := uint64(0); c < 1024; c++ {
		out = append(out, c)
	}
	for c := uint64(1034); c < 1040; c++ {
		out = append(out, c)
	}
	got = encodeRecord(&RegionPair{Out: out, Payload: []byte{1}})
	want = []byte{5, 0x86, 0x08, 2, 3, 1, 1, 10, 6, 1, 1}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload record bytes = %v, want %v", got, want)
	}
	rec, err := decodeRecord(got)
	if err != nil {
		t.Fatal(err)
	}
	if rec.outs.size() != 1030 || !equalU64(rec.outs.cells(nil), out) || !bytes.Equal(rec.payload, []byte{1}) {
		t.Fatalf("container decode: size %d", rec.outs.size())
	}
}

// staleGoldens are the pinned bytes of the two record layouts earlier
// builds wrote — flags 0/1, per-cell delta+varint cell sets, and flags
// 2/3, run-length (gap, length) cell sets — for outs {1,5,9} with inputs
// {0,2},{7}, outs {4} with a 3-byte payload, and outs {10..15} with a
// 1-byte payload. No decoder is kept for them.
var staleGoldens = map[string][]byte{
	"v1 full":    {0, 3, 1, 4, 4, 2, 2, 0, 2, 1, 7},
	"v1 payload": {1, 1, 4, 3, 9, 8, 7},
	"v2 full":    {2, 3, 1, 1, 3, 1, 3, 1, 2, 2, 0, 1, 1, 1, 1, 7, 1},
	"v2 payload": {3, 1, 10, 6, 1, 1},
}

func TestStaleFormatsRejected(t *testing.T) {
	for name, val := range staleGoldens {
		if rec, err := decodeRecord(val); err == nil {
			t.Errorf("%s golden bytes decoded to %+v, want a flags error", name, rec)
		}
	}
}

// A One store written before cell entries were keyed per tile holds one
// 'K' + slot + cell key per cell and a version-1 meta blob. Reopened, it
// must not answer from its tiles (it has none, so every answer would be
// empty): the blob's version sends it through rebuildMeta, which finds the
// per-cell keys and latches the store degraded, and every lookup reports
// ErrCorrupt so the executor re-executes and the heal loop rebuilds. A
// Many store with a version-1 blob holds no per-cell keys and is rebuilt
// from its records instead.
func TestStaleCellKeysDegrade(t *testing.T) {
	pairs := randomPairs(rand.New(rand.NewSource(6)), 40)
	for _, strat := range append(oneStrategies(), StratFullMany) {
		t.Run(strat.ID(), func(t *testing.T) {
			written := toStorePairs(strat, pairs)
			cur := kvstore.NewMem()
			st, err := OpenStore(cur, strat, tOutSpace, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.WritePairs(written); err != nil {
				t.Fatal(err)
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			// The old layout: the same pair records, per-cell keys in
			// place of tiles, and the meta blob at version 1.
			old := kvstore.NewMem()
			if err := cur.Scan(func(key, val []byte) bool {
				if key[0] == keyPair {
					err = old.Put(key, val)
				}
				return err == nil
			}); err != nil {
				t.Fatal(err)
			}
			if strat.Enc == One {
				for id, rp := range written {
					key := binary.BigEndian.AppendUint64([]byte{keyStaleCell, 0}, rp.Out[0])
					if err := old.Put(key, appendIDEntry(nil, []uint64{uint64(id)})); err != nil {
						t.Fatal(err)
					}
				}
			}
			blob, _, err := cur.LoadMeta()
			if err != nil {
				t.Fatal(err)
			}
			if err := old.CommitMeta(append([]byte{1}, blob[1:]...)); err != nil {
				t.Fatal(err)
			}

			st, err = OpenStore(old, strat, tOutSpace, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			q := bitmap.New(tOutSpace)
			q.SetAll()
			dst := bitmap.New(tInSpaces[0])
			err = st.Backward(q, dst, 0, testMapP, nil, nil)
			if strat.Enc == Many {
				// A Many store holds no cell entries: its version-1 blob
				// loads, statistics included.
				if err != nil || st.Degraded() || !bitmapsEqual(dst, refBackward(pairs, q, 0)) {
					t.Fatalf("version-1 Many store: err=%v degraded=%v, %d cells", err, st.Degraded(), dst.Count())
				}
				if got := st.Stats().Pairs; got != len(pairs) {
					t.Fatalf("version-1 Many store: stats hold %d pairs, want %d", got, len(pairs))
				}
				return
			}
			if !errors.Is(err, ErrCorrupt) || !st.Degraded() {
				t.Fatalf("backward: err=%v degraded=%v; want ErrCorrupt and degraded", err, st.Degraded())
			}
			if _, err := st.ContainsOut(pairs[0].Out[0]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ContainsOut: err=%v, want ErrCorrupt", err)
			}
			fq := bitmap.New(tInSpaces[0])
			fq.SetAll()
			if err := st.Forward(fq, bitmap.New(tOutSpace), 0, testMapP, nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("forward: err=%v, want ErrCorrupt", err)
			}
			// Nothing is written beside the old keys, and no meta blob
			// that would hide them is committed.
			if err := st.WritePairs(written[:1]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("WritePairs: err=%v, want ErrCorrupt", err)
			}
			if err := st.Flush(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Flush: err=%v, want ErrCorrupt", err)
			}
			if blob, _, err := old.LoadMeta(); err != nil || blob[0] != 1 {
				t.Fatalf("meta blob after refused writes: version %d, err %v; want 1", blob[0], err)
			}
		})
	}
}

// A pair-key value the store cannot use — a stale format, or a record
// that decodes but is the wrong kind or carries the wrong number of input
// sets for this store — is corruption on every lookup path: the lookup
// returns ErrCorrupt and latches the store degraded (the executor then
// re-executes and the heal loop rebuilds). It must never index past the
// record's input sets.
func TestUnusableRecordDegradesStore(t *testing.T) {
	pairs := []RegionPair{
		{Out: []uint64{1, 5, 9}, Ins: [][]uint64{{0, 2}, {7}}},
		{Out: []uint64{30, 31}, Ins: [][]uint64{{40}, {3, 4}}},
	}
	// What a Full store cannot use; a payload store cannot use a full
	// record.
	inFull := map[string][]byte{
		"wrong kind":    encodeRecord(&RegionPair{Out: pairs[0].Out, Payload: testPayload(pairs[0].Ins)}),
		"one input set": encodeRecord(&RegionPair{Out: []uint64{1, 5, 9}, Ins: [][]uint64{{0, 2}}}),
		"no input sets": encodeRecord(&RegionPair{Out: []uint64{1, 5, 9}, Ins: [][]uint64{}}),
	}
	for name, val := range staleGoldens {
		inFull[name] = val
	}
	inPay := map[string][]byte{"wrong kind": encodeRecord(&pairs[0])}

	for _, strat := range []Strategy{StratFullOne, StratFullMany, StratFullOneFwd, StratFullManyFwd, StratPayMany} {
		vals := inFull
		if strat.Mode != Full {
			vals = inPay
		}
		for name, val := range vals {
			for _, forward := range []bool{false, true} {
				dir := map[bool]string{false: "backward", true: "forward"}[forward]
				t.Run(strat.ID()+"/"+name+"/"+dir, func(t *testing.T) {
					kv := kvstore.NewMem()
					st, err := OpenStore(kv, strat, tOutSpace, tInSpaces)
					if err != nil {
						t.Fatal(err)
					}
					if err := st.WritePairs(toStorePairs(strat, pairs)); err != nil {
						t.Fatal(err)
					}
					if err := st.Flush(); err != nil {
						t.Fatal(err)
					}
					for id := range pairs {
						if err := kv.Put(pairKey(uint64(id)), val); err != nil {
							t.Fatal(err)
						}
					}
					// Reopen so the lookup decodes from the hashtable.
					if st, err = OpenStore(kv, strat, tOutSpace, tInSpaces); err != nil {
						t.Fatal(err)
					}
					if forward {
						q := bitmap.New(tInSpaces[1])
						q.SetAll()
						err = st.Forward(q, bitmap.New(tOutSpace), 1, testMapP, nil)
					} else {
						q := bitmap.New(tOutSpace)
						q.SetAll()
						err = st.Backward(q, bitmap.New(tInSpaces[1]), 1, testMapP, nil, nil)
					}
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("lookup error = %v, want ErrCorrupt", err)
					}
					if !st.Degraded() {
						t.Fatal("store not degraded after an unusable record")
					}
				})
			}
		}
	}
}
