package lineage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"subzero/internal/bitmap"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
)

// oneStrategies are the encodings that keep per-cell entries.
func oneStrategies() []Strategy {
	return []Strategy{StratFullOne, StratFullOneFwd, StratPayOne, StratCompOne}
}

// TestCellEntryLogGolden pins the bytes a One-encoding store leaves on
// disk: a seeded pair set is written in three batches and then flushed
// once, the sha256 of the log must match, and the log must be the only
// file. The logs are those of commit d331f3d with each record's 4-byte
// CRC taken out, the only change to the log's framing since: the Pay-One
// and Comp-One logs, which hold tiles only, match what the tile-keyed
// layout wrote for that history when flushes could still merge into tiles
// (commit d5717e4); the Full-One logs are those of 64-id record blocks.
// Any change to which blocks or tiles are written, in what order, how a
// block or tile value is laid out, or how its id and payload lists are
// sorted shows up here.
func TestCellEntryLogGolden(t *testing.T) {
	want := map[string]string{
		"Full-One-b": "4030d258dce8263fdfe19795d0164d3299da3ebbc6bea1d7a354993a33ac3e41",
		"Full-One-f": "b28c6f61cf5ecc1f43215d2f29f6900cc54493d525289235ab1e6b03a01ee7dd",
		"Pay-One-b":  "3375ca66b8c969b59c6cf771d62e44bba13f44aced4ec67bfbc4205283b628f7",
		"Comp-One-b": "3375ca66b8c969b59c6cf771d62e44bba13f44aced4ec67bfbc4205283b628f7",
	}
	pairs := randomPairs(rand.New(rand.NewSource(31)), 90)
	for _, strat := range oneStrategies() {
		t.Run(strat.ID(), func(t *testing.T) {
			sp := toStorePairs(strat, pairs)
			if strat.Mode != Full {
				// Repeat some payloads so cells hold equal payloads too.
				for i := 5; i < len(sp); i += 5 {
					sp[i].Payload = sp[i-4].Payload
				}
			}
			dir := t.TempDir()
			path := filepath.Join(dir, "s.log")
			fs, err := kvstore.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b := newBuilder(t, fs, strat)
			for _, batch := range [][]RegionPair{sp[:30], sp[30:60], sp[60:]} {
				if err := b.WritePairs(batch); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			if got := fileHash(t, path); got != want[strat.ID()] {
				t.Fatalf("log sha256 = %q, want %q", got, want[strat.ID()])
			}
			if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
				t.Fatalf("store directory holds %d files (err %v), want the log only", len(ents), err)
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

// TestTileValueGolden pins the value bytes of one dense and one sparse
// tile as a FullOne flush writes them. Tile 0 holds all 1024 cells, 16
// consecutive cells per pair: its cell set is one full container, and the
// 16 cells of a pair share one {id} entry, so 64 two-byte entries take
// one-byte start offsets. Tile 1 holds cells 1027 and 1724: a sparse-direct
// cell set of tile-local offsets 3 and 700, and the id lists {64} and
// {65, 66}.
func TestTileValueGolden(t *testing.T) {
	outSp := grid.NewSpace(grid.Shape{2, 1024})
	inSps := []*grid.Space{grid.NewSpace(grid.Shape{8, 8})}
	var pairs []RegionPair
	for p := uint64(0); p < 64; p++ {
		rp := RegionPair{Ins: [][]uint64{{p}}}
		for c := 16 * p; c < 16*p+16; c++ {
			rp.Out = append(rp.Out, c)
		}
		pairs = append(pairs, rp)
	}
	pairs = append(pairs,
		RegionPair{Out: []uint64{1027}, Ins: [][]uint64{{1}}},
		RegionPair{Out: []uint64{1724}, Ins: [][]uint64{{2}}},
		RegionPair{Out: []uint64{1724}, Ins: [][]uint64{{3}}})
	kv := kvstore.NewMem()
	buildStoreIn(t, kv, StratFullOne, outSp, inSps, pairs)
	value := func(tile uint64) []byte {
		t.Helper()
		val, ok := getKV(t, kv, appendTileKey(nil, 0, tile))
		if !ok {
			t.Fatalf("tile %d missing", tile)
		}
		return val
	}

	dense := value(0)
	// count 1024, one tile, header 0<<2|3 (full), width 1, then starts 0
	// (×16), 2 (×16), …, then the entries {0}, {1}, … {63}.
	sum := sha256.Sum256(dense)
	if len(dense) != 5+1024+2*64 || !bytes.HasPrefix(dense, []byte{0x80, 0x08, 1, 3, 1}) ||
		hex.EncodeToString(sum[:]) != "7be14731b0b1a6a380bfb9aef9257ba6dd8162628270b88f8552a385372d723f" {
		t.Fatalf("dense tile: %d bytes, head %v, sha256 %x", len(dense), dense[:min(len(dense), 5)], sum)
	}
	entries := dense[5+1024:]
	for i := 0; i < 1024; i++ {
		start := int(dense[5+i])
		if start != 2*(i/16) || !bytes.Equal(entries[start:start+2], []byte{1, byte(i / 16)}) {
			t.Fatalf("dense tile cell %d: entry at %d", i, start)
		}
	}

	sparse := value(1)
	// count 2, sparse-direct, offsets 3 and +697, width 1, starts 0 and 2,
	// entries {64} and {65, 66}.
	wantSparse := []byte{2, 0, 3, 0xB9, 0x05, 1, 0, 2, 1, 64, 2, 65, 66}
	if !bytes.Equal(sparse, wantSparse) {
		t.Fatalf("sparse tile = %v, want %v", sparse, wantSparse)
	}
}

// cellModel is the reference for a One store's per-cell entries: every
// (slot, cell) maps to the list its entry must hold, ids ascending or
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

// check compares every cell entry of every tile the hashtable holds with
// the model, and checks the tile is canonical: a cell whose list equals its
// neighbour's shares its neighbour's entry.
func (m *cellModel) check(t *testing.T, kv kvstore.Store) {
	t.Helper()
	seen := 0
	var tile cellTile
	err := kv.Scan(func(key, val []byte) bool {
		if len(key) == 0 || key[0] != keyTile {
			return true
		}
		if err := tile.parse(val); err != nil {
			t.Fatalf("tile %x: %v", key, err)
		}
		base := binary.BigEndian.Uint64(key[2:]) * 1024
		var prevIDs []uint64
		var prevPays [][]byte
		i := 0
		for w, word := range tile.blk {
			for ; word != 0; word &= word - 1 {
				k := [2]uint64{uint64(key[1]), base + uint64(w*64+bits.TrailingZeros64(word))}
				entry, err := tile.entry(i)
				if err != nil {
					t.Fatalf("cell %v: %v", k, err)
				}
				own := i == 0 || tile.start(i) != tile.start(i-1)
				seen, i = seen+1, i+1
				if m.pays != nil {
					var got [][]byte
					if err := forEachPayload(entry, func(p []byte) error {
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
					if own && i > 1 && slices.EqualFunc(got, prevPays, bytes.Equal) {
						t.Fatalf("cell %v repeats its neighbour's entry", k)
					}
					prevPays = got
					continue
				}
				got, err := appendIDList(nil, entry)
				if err != nil {
					t.Fatalf("cell %v: %v", k, err)
				}
				want := slices.Sorted(slices.Values(m.ids[k]))
				if !slices.Equal(got, want) {
					t.Fatalf("cell %v holds ids %v, want %v", k, got, want)
				}
				if own && i > 1 && slices.Equal(got, prevIDs) {
					t.Fatalf("cell %v repeats its neighbour's entry", k)
				}
				prevIDs = got
			}
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

// The fuzz fixture spans three tiles on its key sides, so cells on both
// sides of a tile edge share pairs, queries and flushes.
var (
	fOutSpace = grid.NewSpace(grid.Shape{3, 1024})
	fInSpaces = []*grid.Space{grid.NewSpace(grid.Shape{3, 1024}), grid.NewSpace(grid.Shape{8, 8})}
)

// fuzzCell draws a cell of a three-tile space, half the time at or next to
// a tile edge (a cell index ≡ 0 or 1023 mod 1024).
func fuzzCell(rng *rand.Rand) uint64 {
	if rng.Intn(2) == 0 {
		return uint64(rng.Intn(3072))
	}
	edge := uint64(rng.Intn(3)) * 1024
	return []uint64{edge, edge + 1, edge + 1022, edge + 1023}[rng.Intn(4)]
}

// fuzzPairs draws a small batch whose cells and payloads collide often:
// few cells, most of them at tile edges, and three payload values.
func fuzzPairs(rng *rand.Rand, strat Strategy) []RegionPair {
	pairs := make([]RegionPair, 1+rng.Intn(6))
	for i := range pairs {
		rp := &pairs[i]
		for n := 1 + rng.Intn(5); n > 0; n-- {
			rp.Out = append(rp.Out, fuzzCell(rng))
		}
		if strat.Mode == Full {
			rp.Ins = make([][]uint64, 2)
			for n := 1 + rng.Intn(5); n > 0; n-- {
				rp.Ins[0] = append(rp.Ins[0], fuzzCell(rng))
			}
			if rng.Intn(2) == 0 {
				rp.Ins[1] = append(rp.Ins[1], uint64(rng.Intn(64)))
			}
		} else {
			rp.Payload = []byte{byte(rng.Intn(3)), 7}[:1+rng.Intn(2)]
		}
		rp.Normalize()
	}
	return pairs
}

// fuzzQuery draws query cells on a three-tile space: a few scattered cells
// and a run across a tile edge.
func fuzzQuery(rng *rand.Rand, space *grid.Space) *bitmap.Bitmap {
	q := bitmap.New(space)
	for n := rng.Intn(6); n > 0; n-- {
		q.Set(fuzzCell(rng))
	}
	edge := 1024 * uint64(1+rng.Intn(2))
	q.SetRun(edge-uint64(1+rng.Intn(4)), uint64(2+rng.Intn(6)))
	return q
}

// FuzzCellEntries drives a One store through a random sequence of writes
// and one Flush, on key spaces of three tiles whose edge cells draw most of
// the traffic. After the Flush each cell entry of each tile is checked
// against a map of sorted lists, and every lookup the sequence asks for is
// checked against the pairs written.
func FuzzCellEntries(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3})
	f.Add([]byte{1, 0, 2, 0, 3, 0, 1})
	f.Add([]byte{2, 0, 0, 2, 0, 3, 1, 3})
	f.Add([]byte{7, 1, 3, 0, 2, 2, 1})
	f.Add([]byte{8, 0, 1, 0, 2, 1, 3})
	f.Add([]byte{13, 0, 0, 1, 2, 0, 3, 1, 2})
	f.Add([]byte{10, 1, 0, 2, 3, 0, 1, 2})
	f.Add([]byte{5, 0, 3, 1, 3, 2, 0, 3})
	f.Add([]byte{6, 1, 3, 0, 3, 1, 3, 2})
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
		b, err := NewBuilder(kv, strat, fOutSpace, fInSpaces)
		if err != nil {
			t.Fatal(err)
		}
		model := &cellModel{ids: map[[2]uint64][]uint64{}}
		if strat.Mode != Full {
			model = &cellModel{pays: map[[2]uint64][][]byte{}}
		}
		var written []RegionPair
		var lookups []int64
		for i, op := range data[1:] {
			seed := int64(i)<<8 | int64(op)
			if op%4 == 2 {
				lookups = append(lookups, seed)
				continue
			}
			pairs := fuzzPairs(rand.New(rand.NewSource(seed)), strat)
			if err := b.WritePairs(pairs); err != nil {
				t.Fatal(err)
			}
			for j := range pairs {
				model.add(strat, uint64(len(written)), &pairs[j])
				written = append(written, pairs[j])
			}
		}
		st, err := b.Flush()
		if err != nil {
			t.Fatal(err)
		}
		model.check(t, kv)
		for _, seed := range lookups {
			checkFuzzLookup(t, st, written, rand.New(rand.NewSource(seed)), noMap)
		}
	})
}

// checkFuzzLookup runs one lookup in the store's own direction and checks
// it against the pairs written: the input-0 cells of every pair a backward
// query hits (FullOne), the outputs of every pair a forward query hits
// (FullOneFwd), or the query cells some payload pair covers (PayOne,
// CompOne).
func checkFuzzLookup(t *testing.T, st *Store, written []RegionPair, rng *rand.Rand, mapp PayloadFn) {
	t.Helper()
	hits := func(cells []uint64, q *bitmap.Bitmap) bool {
		return slices.ContainsFunc(cells, q.Get)
	}
	switch {
	case st.strat.Mode != Full:
		q := fuzzQuery(rng, fOutSpace)
		covered := bitmap.New(fOutSpace)
		if err := st.Backward(q, bitmap.New(fInSpaces[0]), 0, mapp, covered, nil); err != nil {
			t.Fatal(err)
		}
		want := bitmap.New(fOutSpace)
		for _, rp := range written {
			for _, c := range rp.Out {
				if q.Get(c) {
					want.Set(c)
				}
			}
		}
		if !bitmapsEqual(covered, want) {
			t.Fatalf("backward covered %v, want %v", covered.Cells(nil), want.Cells(nil))
		}
	case st.strat.Orient == BackwardOpt:
		q := fuzzQuery(rng, fOutSpace)
		got, want := bitmap.New(fInSpaces[0]), bitmap.New(fInSpaces[0])
		if err := st.Backward(q, got, 0, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		for _, rp := range written {
			if hits(rp.Out, q) {
				want.SetCells(rp.Ins[0])
			}
		}
		if !bitmapsEqual(got, want) {
			t.Fatalf("backward answer %v, want %v", got.Cells(nil), want.Cells(nil))
		}
	default:
		q := fuzzQuery(rng, fInSpaces[0])
		got, want := bitmap.New(fOutSpace), bitmap.New(fOutSpace)
		if err := st.Forward(q, got, 0, nil, nil); err != nil {
			t.Fatal(err)
		}
		for _, rp := range written {
			if hits(rp.Ins[0], q) {
				want.SetCells(rp.Out)
			}
		}
		if !bitmapsEqual(got, want) {
			t.Fatalf("forward answer %v, want %v", got.Cells(nil), want.Cells(nil))
		}
	}
}
