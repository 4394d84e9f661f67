package binenc

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// decodeContainerCells materializes a container-form set that must span
// the whole of enc.
func decodeContainerCells(t *testing.T, enc []byte) []uint64 {
	t.Helper()
	cells, n, err := decodeCells(enc)
	if err != nil {
		t.Fatalf("DecodeContainersInto: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	return cells
}

func TestContainersGoldenBytes(t *testing.T) {
	cases := []struct {
		name  string
		cells []uint64
		want  []byte
	}{
		{"empty", nil, []byte{0}},
		// count 3, nTiles=0 (sparse-direct), first 5 then gaps.
		{"sparse-direct", []uint64{5, 9, 1024}, []byte{3, 0, 5, 4, 0xF7, 0x07}},
		// 9 cells > SparseDirectMax: one tile, one run (gap 100, len 9):
		// runs beats array and bitmap.
		{"single-run", []uint64{100, 101, 102, 103, 104, 105, 106, 107, 108},
			[]byte{9, 1, 1, 1, 100, 9}},
		// A full tile has no payload.
		{"full-tile", fullTile(0), append([]byte{0x80, 0x08, 1}, 3)},
		// Every other cell of tile 2: 512 cells, 512 runs (~1KB), array
		// ~514B, bitmap 128B wins. Header gap=2, type=2 -> 2<<2|2 = 10.
		{"bitmap-tile", everyOther(2048, 512),
			append([]byte{0x80, 0x04, 1, 10}, bytes.Repeat([]byte{0x55}, 128)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := AppendCellSetContainers(nil, tc.cells)
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("encoded bytes = %v, want %v", got, tc.want)
			}
			back := decodeContainerCells(t, got)
			if !sameCells(back, tc.cells) {
				t.Fatalf("round trip = %v, want %v", back, tc.cells)
			}
		})
	}
}

// ArrayCells must yield exactly the offsets ExpandContainer sets, for
// every array container the encoder writes.
func TestArrayCellsMatchesExpand(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		seen := map[uint64]bool{}
		var cells []uint64
		for n := 9 + rng.Intn(40); len(cells) < n; {
			if c := uint64(rng.Intn(TileCells)); !seen[c] {
				seen[c] = true
				cells = append(cells, c)
			}
		}
		slices.Sort(cells)
		enc := AppendCellSetContainers(nil, cells)
		_, _, err := WalkContainers(enc, nil, func(base uint64, typ byte, payOff, payLen int) bool {
			if typ != ContainerArray {
				return true
			}
			pay := enc[payOff : payOff+payLen]
			var want [TileWords]uint64
			if _, err := ExpandContainer(typ, pay, &want); err != nil {
				t.Fatal(err)
			}
			var got [TileWords]uint64
			ArrayCells(pay, func(off uint64) { got[off/64] |= 1 << (off % 64) })
			if got != want {
				t.Fatalf("trial %d: ArrayCells block %v, ExpandContainer %v", trial, got, want)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func fullTile(base uint64) []uint64 {
	cells := make([]uint64, TileCells)
	for i := range cells {
		cells[i] = base + uint64(i)
	}
	return cells
}

func everyOther(base uint64, n int) []uint64 {
	cells := make([]uint64, n)
	for i := range cells {
		cells[i] = base + 2*uint64(i)
	}
	return cells
}

// Random sets across the density spectrum must round-trip exactly through
// both decoders: the streaming run decoder and the tile walk the lookup
// path probes in situ.
func TestContainersRoundTripDensities(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gapFns := []func() uint64{
		func() uint64 { return 1 },                          // dense runs
		func() uint64 { return uint64(1 + rng.Intn(2)) },    // ~60% density
		func() uint64 { return uint64(1 + rng.Intn(7)) },    // medium scatter
		func() uint64 { return uint64(1 + rng.Intn(5000)) }, // sparse
	}
	for gi, gap := range gapFns {
		for trial := 0; trial < 30; trial++ {
			n := 1 + rng.Intn(3000)
			cells := make([]uint64, 0, n)
			pos := uint64(rng.Intn(2000))
			for i := 0; i < n; i++ {
				cells = append(cells, pos)
				pos += gap()
			}
			enc := AppendCellSetContainers(nil, cells)
			got := decodeContainerCells(t, enc)
			if !sameCells(got, cells) {
				t.Fatalf("gap fn %d trial %d: round trip mismatch (%d cells)", gi, trial, n)
			}

			if walked, _, err := walkCells(enc); err != nil || !sameCells(walked, cells) {
				t.Fatalf("gap fn %d trial %d: tile walk disagrees with the run decoder (err %v)", gi, trial, err)
			}
		}
	}
}

// Medium-density cell sets are the case the bitmap container exists for:
// it bounds every tile at one bit per cell it spans, however the cells
// scatter — strided masks (every other cell) and 40% random scatter both
// cost two bytes per cell or more as varint gaps.
func TestContainersCompressMediumDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scatter []uint64
	for c := uint64(0); c < 64*1024; c++ {
		if rng.Intn(100) < 40 {
			scatter = append(scatter, c)
		}
	}
	for name, cells := range map[string][]uint64{"strided": everyOther(0, 32*1024), "scatter": scatter} {
		tiles := int(cells[len(cells)-1]>>tileShift) + 1
		bound := tiles*(TileWords*8+2) + 2*binary.MaxVarintLen64
		if got := len(AppendCellSetContainers(nil, cells)); got > bound {
			t.Fatalf("%s: %d cells over %d tiles encode to %dB, want <= %dB (1 bit per spanned cell)",
				name, len(cells), tiles, got, bound)
		}
	}
}

func TestWalkContainersRejectsMalformed(t *testing.T) {
	valid := AppendCellSetContainers(nil, everyOther(0, 512))
	cases := map[string][]byte{
		"empty":                 {},
		"truncated count":       {0x80},
		"truncated tiles":       {5},
		"sparse count too big":  {0xFF, 0xFF, 0x7F, 0},
		"truncated sparse cell": {3, 0, 1, 1},
		"sparse non-increasing": {3, 0, 1, 0, 1},
		"sparse over the max":   {9, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		"sparse wraps uint64":   {2, 0, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		"truncated header":      {9, 1},
		"truncated bitmap":      valid[:len(valid)-1],
		"array zero cells":      {9, 1, 0, 0},
		"array past tile":       {9, 1, 0, 9, 0xFF, 0x07, 1, 1, 1, 1, 1, 1, 1, 1},
		"run zero length":       {9, 1, 1, 1, 0, 0},
		"run past tile":         {9, 1, 1, 1, 0xFF, 0x07, 2},
		"count mismatch":        {8, 1, 1, 1, 0, 4},
	}
	for name, src := range cases {
		if _, _, err := WalkContainers(src, nil, nil); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
}

// walkCells materializes the container-form set at the head of src
// through WalkContainers and ExpandContainer — the decoder the lookup path
// probes with, independent of DecodeContainersInto's run emission.
func walkCells(src []byte) ([]uint64, int, error) {
	var cells []uint64
	var expandErr error
	_, n, err := WalkContainers(src,
		func(cell uint64) bool {
			cells = append(cells, cell)
			return true
		},
		func(base uint64, typ byte, payOff, payLen int) bool {
			var w [TileWords]uint64
			if _, expandErr = ExpandContainer(typ, src[payOff:payOff+payLen], &w); expandErr != nil {
				return false
			}
			for i, word := range w {
				for ; word != 0; word &= word - 1 {
					cells = append(cells, base+uint64(i*64+bits.TrailingZeros64(word)))
				}
			}
			return true
		})
	if err == nil {
		err = expandErr
	}
	return cells, n, err
}

func sameCells(got, want []uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// AppendTileSet picks the container a reader expands fastest: a runs or
// array container only while it stays small in varints, else the bitmap;
// ExpandTileSet reads every form back, in one tile block.
func TestTileSetForms(t *testing.T) {
	scattered := func(n int) []uint64 {
		var cells []uint64
		for i := 0; i < n; i++ {
			cells = append(cells, uint64(i*60))
		}
		return cells
	}
	runs := func(n int) []uint64 {
		var cells []uint64
		for i := 0; i < n; i++ {
			cells = append(cells, uint64(i*100), uint64(i*100+1))
		}
		return cells
	}
	cases := []struct {
		name  string
		cells []uint64
		typ   int // container type, or -1 for sparse-direct
	}{
		{"sparse-direct", scattered(SparseDirectMax), -1},
		{"one run", []uint64{100, 101, 102, 103, 104, 105, 106, 107, 108}, ContainerRuns},
		{"max runs", runs(tileSetMaxRuns), ContainerRuns},
		{"too many runs", runs(tileSetMaxRuns + 1), ContainerBitmap},
		{"max array", scattered(tileSetMaxArray), ContainerArray},
		{"too big an array", scattered(tileSetMaxArray + 1), ContainerBitmap},
		{"medium density", everyOther(0, 512), ContainerBitmap},
		{"full", fullTile(0), ContainerFull},
	}
	for _, tc := range cases {
		enc := AppendTileSet(nil, tc.cells)
		typ := -1
		if _, _, err := WalkContainers(enc, nil, func(_ uint64, ct byte, _, _ int) bool {
			typ = int(ct)
			return true
		}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if typ != tc.typ {
			t.Errorf("%s: container type %d, want %d", tc.name, typ, tc.typ)
		}
		var w [TileWords]uint64
		w[3] = 1 // ExpandTileSet zeroes the block first
		count, n, err := ExpandTileSet(append(enc, 0xAA), &w)
		if err != nil || n != len(enc) || count != uint64(len(tc.cells)) {
			t.Fatalf("%s: ExpandTileSet = (%d, %d, %v), want (%d, %d, nil)", tc.name, count, n, err, len(tc.cells), len(enc))
		}
		if got := blockCells(&w); !sameCells(got, tc.cells) {
			t.Fatalf("%s: expanded %v, want %v", tc.name, got, tc.cells)
		}
	}
}

func TestExpandTileSetRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":              {},
		"truncated tiles":    {5},
		"two tiles":          AppendCellSetContainers(nil, append(everyOther(0, 20), everyOther(1024, 20)...)),
		"tile 1":             AppendCellSetContainers(nil, everyOther(1024, 20)),
		"sparse past tile":   AppendCellSetContainers(nil, []uint64{3, 1024}),
		"truncated bitmap":   AppendTileSet(nil, everyOther(0, 512))[:40],
		"empty bitmap":       append([]byte{1, 1, ContainerBitmap}, make([]byte, TileWords*8)...),
		"bitmap count":       append([]byte{2, 1, ContainerBitmap, 1}, make([]byte, TileWords*8-1)...),
		"run count mismatch": {8, 1, 1, 1, 0, 4},
		"run past tile":      {9, 1, 1, 1, 0xFF, 0x07, 2},
	}
	for name, src := range cases {
		var w [TileWords]uint64
		if _, _, err := ExpandTileSet(src, &w); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
}
