package binenc

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"subzero/internal/grid"
)

func TestRectRoundTrip(t *testing.T) {
	cases := []grid.Rect{
		{Lo: grid.Coord{0}, Hi: grid.Coord{0}},
		{Lo: grid.Coord{1, 2}, Hi: grid.Coord{3, 5}},
		{Lo: grid.Coord{0, 0, 0}, Hi: grid.Coord{511, 1999, 7}},
	}
	for _, r := range cases {
		enc := AppendRect(nil, r)
		got, n, err := DecodeRect(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", r, err)
		}
		if n != len(enc) || !got.Equal(r) {
			t.Fatalf("got %v (%d bytes), want %v (%d bytes)", got, n, r, len(enc))
		}
	}
}

func TestRectDecodeErrors(t *testing.T) {
	if _, _, err := DecodeRect(nil); err == nil {
		t.Fatal("empty rect buffer accepted")
	}
	bad := binary.AppendUvarint(nil, 0) // rank 0
	if _, _, err := DecodeRect(bad); err == nil {
		t.Fatal("rank-0 rect accepted")
	}
	enc := AppendRect(nil, grid.Rect{Lo: grid.Coord{3, 4}, Hi: grid.Coord{9, 9}})
	if _, _, err := DecodeRect(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated rect accepted")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	for _, b := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 300)} {
		enc := AppendBytes(nil, b)
		got, n, err := DecodeBytes(enc)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(enc) || !bytes.Equal(got, b) {
			t.Fatalf("round trip failed for %d bytes", len(b))
		}
	}
	if _, _, err := DecodeBytes(binary.AppendUvarint(nil, 100)); err == nil {
		t.Fatal("oversize byte string accepted")
	}
}

// Property: cell-set encoding round-trips for arbitrary sorted sets.
func TestQuickCellSetRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		cells := grid.SortCells(widen(raw))
		enc := AppendCellSetContainers(nil, cells)
		got, n, err := decodeCells(enc)
		return err == nil && n == len(enc) && sameCells(got, cells)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: multiple values appended back-to-back decode in sequence, as the
// lineage encoder relies on when framing region pairs.
func TestQuickSequentialFrames(t *testing.T) {
	f := func(a, b []uint32, payload []byte) bool {
		ca := grid.SortCells(widen(a))
		cb := grid.SortCells(widen(b))
		var buf []byte
		buf = AppendCellSetContainers(buf, ca)
		buf = AppendBytes(buf, payload)
		buf = AppendCellSetContainers(buf, cb)

		g1, n1, err := decodeCells(buf)
		if err != nil {
			return false
		}
		p, n2, err := DecodeBytes(buf[n1:])
		if err != nil {
			return false
		}
		g2, n3, err := decodeCells(buf[n1+n2:])
		if err != nil || n1+n2+n3 != len(buf) {
			return false
		}
		return sameCells(g1, ca) && sameCells(g2, cb) && bytes.Equal(p, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// decodeCells materializes the container-form set at the head of src.
func decodeCells(src []byte) ([]uint64, int, error) {
	var cells []uint64
	n, err := DecodeContainersInto(src, func(start, length uint64) bool {
		for c := start; c < start+length; c++ {
			cells = append(cells, c)
		}
		return true
	})
	return cells, n, err
}

func widen(in []uint32) []uint64 {
	out := make([]uint64, len(in))
	for i, v := range in {
		out[i] = uint64(v)
	}
	return out
}
