package lineage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"subzero/internal/bitmap"
	"subzero/internal/kvstore"
)

// oneStrategies are the encodings that keep per-cell entries.
func oneStrategies() []Strategy {
	return []Strategy{StratFullOne, StratFullOneFwd, StratPayOne, StratCompOne}
}

// TestCellEntryLogGolden pins the bytes a One-encoding store leaves on
// disk: a seeded pair set is written in three batches — the first flushed,
// the second merged by a lookup, the third merged by the final flush — and
// the sha256 of the log and of the meta sidecar must match the values the
// map-buffered write path produced. Any change to which keys a flush
// writes, in what order, or how their id and payload lists are sorted
// shows up here.
func TestCellEntryLogGolden(t *testing.T) {
	want := map[string][2]string{
		"Full-One-b": {"2ee9f0130cffa7a1cc5233f04e959c38d4a266ced01d4e0d732e18fed06ab920", "7f6d9805d5d3372621af0e95d6098d6a6a7dfca2bc4ece34c16084129b646ca8"},
		"Full-One-f": {"2104687ae92288db37aefcc7badbcf6f3be1ca7924aa3f29abb2dd29b01eefc2", "7f6d9805d5d3372621af0e95d6098d6a6a7dfca2bc4ece34c16084129b646ca8"},
		"Pay-One-b":  {"48a893a503d319a78207c418c1505537dd110f746fd7ac3d671bd6c0c88d9c1c", "797794c53312ddddfed89c3312e3017b77272f14600dc7f2d998dfefa9dd4a60"},
		"Comp-One-b": {"48a893a503d319a78207c418c1505537dd110f746fd7ac3d671bd6c0c88d9c1c", "797794c53312ddddfed89c3312e3017b77272f14600dc7f2d998dfefa9dd4a60"},
	}
	pairs := randomPairs(rand.New(rand.NewSource(31)), 90)
	q := randomQuery(rand.New(rand.NewSource(8)), tOutSpace, 40)
	for _, strat := range oneStrategies() {
		t.Run(strat.ID(), func(t *testing.T) {
			sp := toStorePairs(strat, pairs)
			if strat.Mode != Full {
				// Repeat some payloads so cells hold equal payloads too.
				for i := 5; i < len(sp); i += 5 {
					sp[i].Payload = sp[i-4].Payload
				}
			}
			path := filepath.Join(t.TempDir(), "s.log")
			fs, err := kvstore.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			st, err := OpenStore(fs, strat, tOutSpace, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			step := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			step(st.WritePairs(sp[:30]))
			step(st.Flush())
			step(st.WritePairs(sp[30:60]))
			step(st.Backward(q, bitmap.New(tInSpaces[0]), 0, testMapP, nil, nil))
			step(st.WritePairs(sp[60:]))
			step(st.Flush())
			step(fs.Close())
			got := [2]string{fileHash(t, path), fileHash(t, path+".meta")}
			if got != want[strat.ID()] {
				t.Fatalf("log/meta sha256 = %q, want %q", got, want[strat.ID()])
			}
		})
	}
}

func fileHash(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cellModel is the reference for a One store's per-cell entries: every
// (slot, cell) key maps to the list its entry must hold, ids ascending or
// payloads in byte order.
type cellModel struct {
	ids  map[[2]uint64][]uint64
	pays map[[2]uint64][][]byte
}

func (m *cellModel) add(strat Strategy, id uint64, rp *RegionPair) {
	switch {
	case strat.Mode != Full:
		for _, c := range rp.Out {
			m.pays[[2]uint64{0, c}] = append(m.pays[[2]uint64{0, c}], rp.Payload)
		}
	case strat.Orient == BackwardOpt:
		for _, c := range rp.Out {
			m.ids[[2]uint64{0, c}] = append(m.ids[[2]uint64{0, c}], id)
		}
	default:
		for j, in := range rp.Ins {
			for _, c := range in {
				m.ids[[2]uint64{uint64(j), c}] = append(m.ids[[2]uint64{uint64(j), c}], id)
			}
		}
	}
}

// check compares every cell entry the hashtable holds with the model.
func (m *cellModel) check(t *testing.T, kv kvstore.Store) {
	t.Helper()
	seen := 0
	err := kv.Scan(func(key, val []byte) bool {
		if len(key) == 0 || key[0] != keyCell {
			return true
		}
		seen++
		k := [2]uint64{uint64(key[1]), 0}
		for _, b := range key[2:] {
			k[1] = k[1]<<8 | uint64(b)
		}
		if m.pays != nil {
			var got [][]byte
			if err := forEachPayload(val, func(p []byte) error {
				got = append(got, bytes.Clone(p))
				return nil
			}); err != nil {
				t.Fatalf("cell %v: %v", k, err)
			}
			want := slices.Clone(m.pays[k])
			slices.SortStableFunc(want, bytes.Compare)
			if !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("cell %v holds payloads %v, want %v", k, got, want)
			}
			return true
		}
		got, err := appendIDList(nil, val)
		if err != nil {
			t.Fatalf("cell %v: %v", k, err)
		}
		want := slices.Sorted(slices.Values(m.ids[k]))
		if !slices.Equal(got, want) {
			t.Fatalf("cell %v holds ids %v, want %v", k, got, want)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(m.ids) + len(m.pays); seen != want {
		t.Fatalf("hashtable holds %d cell entries, model %d", seen, want)
	}
}

// fuzzPairs draws a small batch whose cells and payloads collide often:
// few output cells, three payload values.
func fuzzPairs(rng *rand.Rand, strat Strategy) []RegionPair {
	pairs := randomPairs(rng, 1+rng.Intn(6))
	if strat.Mode == Full {
		return pairs
	}
	for i := range pairs {
		pairs[i] = RegionPair{Out: pairs[i].Out, Payload: []byte{byte(rng.Intn(3)), 7}[:1+rng.Intn(2)]}
	}
	return pairs
}

// FuzzCellEntries drives a One store through a random sequence of writes,
// lookups (each merges the buffered entries) and flushes, and after every
// flush compares each cell entry with a map of sorted lists.
func FuzzCellEntries(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3})
	f.Add([]byte{1, 0, 2, 0, 3, 0, 1})
	f.Add([]byte{2, 0, 0, 2, 0, 3, 1, 3})
	f.Add([]byte{7, 1, 3, 0, 2, 2, 1})
	noMap := func(_ uint64, _ []byte, _ int, dst []uint64) []uint64 { return dst }
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			return
		}
		strat := oneStrategies()[data[0]%4]
		var kv kvstore.Store = kvstore.NewMem()
		if data[0]&4 != 0 {
			fs, err := kvstore.OpenFile(filepath.Join(t.TempDir(), "s.log"))
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			kv = fs
		}
		st, err := OpenStore(kv, strat, tOutSpace, tInSpaces)
		if err != nil {
			t.Fatal(err)
		}
		model := &cellModel{ids: map[[2]uint64][]uint64{}}
		if strat.Mode != Full {
			model = &cellModel{pays: map[[2]uint64][][]byte{}}
		}
		var nextID uint64
		for i, op := range data[1:] {
			switch op % 4 {
			case 0, 1:
				pairs := fuzzPairs(rand.New(rand.NewSource(int64(i)<<8|int64(op))), strat)
				if err := st.WritePairs(pairs); err != nil {
					t.Fatal(err)
				}
				for j := range pairs {
					model.add(strat, nextID, &pairs[j])
					if strat.Mode == Full {
						nextID++
					}
				}
			case 2:
				q := randomQuery(rand.New(rand.NewSource(int64(op))), tOutSpace, 10)
				if err := st.Backward(q, bitmap.New(tInSpaces[0]), 0, noMap, nil, nil); err != nil {
					t.Fatal(err)
				}
			case 3:
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
				model.check(t, kv)
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		model.check(t, kv)
	})
}
