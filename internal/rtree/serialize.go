package rtree

import (
	"encoding/binary"

	"subzero/internal/binenc"
	"subzero/internal/grid"
)

// Encode serializes the tree's items (rank, count, then rect+id per item,
// in tree order). Nothing decodes it: a store keeps its index in memory,
// and EncodedLen, the size it charges for it, is the length of these
// bytes, which tests pin.
func (t *Tree) Encode() []byte {
	buf := make([]byte, 0, 16+t.size*12)
	buf = binary.AppendUvarint(buf, uint64(t.rank))
	buf = binary.AppendUvarint(buf, uint64(t.size))
	t.Walk(all, func(id uint64, lo, hi []int) bool {
		buf = binenc.AppendRect(buf, grid.Rect{Lo: lo, Hi: hi})
		buf = binary.AppendUvarint(buf, id)
		return true
	})
	return buf
}

// EncodedLen returns len(Encode()) without materializing it; the cost
// model charges this against the storage budget for *Many encodings.
func (t *Tree) EncodedLen() int {
	n := uvarintLen(uint64(t.rank)) + uvarintLen(uint64(t.size))
	t.Walk(all, func(id uint64, lo, hi []int) bool {
		n += uvarintLen(uint64(len(lo))) + uvarintLen(id)
		for d := range lo {
			n += uvarintLen(uint64(lo[d])) + uvarintLen(uint64(hi[d]-lo[d]))
		}
		return true
	})
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
