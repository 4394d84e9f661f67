package lineage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
// disk: a seeded pair set is written in three batches — the first flushed,
// the second merged by a lookup, the third merged by the final flush — and
// the sha256 of the log and of the meta sidecar must match the values the
// tile-keyed layout produced when it replaced per-cell keys (the child of
// commit e4ee3b9). Any change to which tiles a flush writes, in what order,
// how a tile value is laid out, or how its id and payload lists are sorted
// shows up here.
func TestCellEntryLogGolden(t *testing.T) {
	want := map[string][2]string{
		"Full-One-b": {"0798d6a956378ed64f551c16b0fae4f56150ef349cf6ccb5d660337a5ae74663", "cc859632be3b8c6827bdde381cf572cc2054c21862486ff1ccc914fd5c196f95"},
		"Full-One-f": {"cfc29822514c6e2db10e929a7802792a85d6c58f0036410f40300635ac965418", "cc859632be3b8c6827bdde381cf572cc2054c21862486ff1ccc914fd5c196f95"},
		"Pay-One-b":  {"508f60a081a9845ad4f3b22c4cca54388a6b43632c5ebd6a6c830a2f1db81dd5", "f9b73ff96cf5caae309bb4e7bbc95c93b7d89576899b493fabec5071b748dda2"},
		"Comp-One-b": {"508f60a081a9845ad4f3b22c4cca54388a6b43632c5ebd6a6c830a2f1db81dd5", "f9b73ff96cf5caae309bb4e7bbc95c93b7d89576899b493fabec5071b748dda2"},
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
	st, err := OpenStore(kv, StratFullOne, outSp, inSps)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WritePairs(pairs); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	value := func(tile uint64) []byte {
		t.Helper()
		val, ok, err := kv.Get(appendTileKey(nil, 0, tile))
		if err != nil || !ok {
			t.Fatalf("tile %d: ok=%v err=%v", tile, ok, err)
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
// the model.
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
		ends := tile.appendNextStarts(nil)
		var prev []byte
		for i, local := range tile.appendLocals(nil) {
			seen++
			k := [2]uint64{uint64(key[1]), base + local}
			entry, err := tile.entry(i)
			if err != nil {
				t.Fatalf("cell %v: %v", k, err)
			}
			// Canonical form: equal neighbours share one entry.
			span, err := tile.entrySpan(i, ends[i])
			if err != nil {
				t.Fatalf("cell %v: %v", k, err)
			}
			if i > 0 && tile.start(i) != tile.start(i-1) && bytes.Equal(span, prev) {
				t.Fatalf("cell %v repeats its neighbour's entry %v", k, span)
			}
			prev = span
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

// FuzzCellEntries drives a One store through a random sequence of writes,
// lookups (each merges the buffered entries) and flushes, on key spaces of
// three tiles whose edge cells draw most of the traffic. Every lookup
// answer is checked against the pairs written so far, and after every
// flush each cell entry of each tile against a map of sorted lists. A
// write after a flush merges into the tiles that flush wrote, the path a
// threshold flush takes too.
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
		st, err := OpenStore(kv, strat, fOutSpace, fInSpaces)
		if err != nil {
			t.Fatal(err)
		}
		model := &cellModel{ids: map[[2]uint64][]uint64{}}
		if strat.Mode != Full {
			model = &cellModel{pays: map[[2]uint64][][]byte{}}
		}
		var written []RegionPair
		for i, op := range data[1:] {
			switch op % 4 {
			case 0, 1:
				pairs := fuzzPairs(rand.New(rand.NewSource(int64(i)<<8|int64(op))), strat)
				if err := st.WritePairs(pairs); err != nil {
					t.Fatal(err)
				}
				for j := range pairs {
					model.add(strat, uint64(len(written)), &pairs[j])
					written = append(written, pairs[j])
				}
			case 2:
				checkFuzzLookup(t, st, written, rand.New(rand.NewSource(int64(i)<<8|int64(op))), noMap)
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

// TestRepeatedFlushLogGrowth bounds what a store written across several
// flushes leaves on a FileStore, against the same pairs written with one
// flush. A flush rewrites every tile it touches whole, and the log keeps
// the old value as garbage, so F flushes that each touch every tile log
// about (F+1)/2 copies of it (more where a partial tile's cell set takes a
// bitmap a full one does not): F/2+1 is the bound for any write order. Pairs
// that arrive in output order, as an operator emits them, touch each tile
// of a backward store in one flush, so those stores stay within 5% of the
// one-flush size.
func TestRepeatedFlushLogGrowth(t *testing.T) {
	out := grid.NewSpace(grid.Shape{16, 1024})
	ins := []*grid.Space{grid.NewSpace(grid.Shape{16, 1024})}
	const nPairs, flushes = 4096, 8
	pair := func(strat Strategy, p int) RegionPair {
		rp := RegionPair{Out: []uint64{uint64(4 * p), uint64(4*p + 1), uint64(4*p + 2), uint64(4*p + 3)}}
		in := []uint64{uint64(28*p) % 16384, uint64(28*p)%16384 + 1}
		if strat.Mode == Full {
			rp.Ins = [][]uint64{in}
		} else {
			rp.Payload = testPayload([][]uint64{in})
		}
		return rp
	}
	// build writes the batches, each followed by a one-cell lookup, which
	// flushes the buffered entries, and returns SizeBytes after a final
	// Flush.
	build := func(strat Strategy, batches [][]int) int64 {
		t.Helper()
		fs, err := kvstore.OpenFile(filepath.Join(t.TempDir(), "s.log"))
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		st, err := OpenStore(fs, strat, out, ins)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range batches {
			pairs := make([]RegionPair, len(batch))
			for i, p := range batch {
				pairs[i] = pair(strat, p)
			}
			if err := st.WritePairs(pairs); err != nil {
				t.Fatal(err)
			}
			if strat.Orient == BackwardOpt {
				q := bitmap.New(out)
				q.Set(0)
				err = st.Backward(q, bitmap.New(ins[0]), 0, testMapP, nil, nil)
			} else {
				q := bitmap.New(ins[0])
				q.Set(0)
				err = st.Forward(q, bitmap.New(out), 0, testMapP, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		return st.SizeBytes()
	}
	all := make([]int, nPairs)
	ordered, interleaved := make([][]int, flushes), make([][]int, flushes)
	for p := range all {
		all[p] = p
		ordered[p*flushes/nPairs] = append(ordered[p*flushes/nPairs], p)
		interleaved[p%flushes] = append(interleaved[p%flushes], p)
	}
	for _, strat := range []Strategy{StratFullOne, StratFullOneFwd, StratPayOne} {
		one := float64(build(strat, [][]int{all}))
		inOrder := float64(build(strat, ordered)) / one
		mixed := float64(build(strat, interleaved)) / one
		t.Logf("%s: one flush %.0f B; %d flushes in output order ×%.2f, interleaved ×%.2f", strat.ID(), one, flushes, inOrder, mixed)
		if limit := float64(flushes)/2 + 1; inOrder > limit || mixed > limit {
			t.Errorf("%s: %d flushes log ×%.2f (in order) and ×%.2f (interleaved) of one flush, want at most ×%.1f", strat.ID(), flushes, inOrder, mixed, limit)
		}
		if strat.Orient == BackwardOpt && inOrder > 1.05 {
			t.Errorf("%s: %d flushes in output order log ×%.2f of one flush, want at most ×1.05", strat.ID(), flushes, inOrder)
		}
	}
}
