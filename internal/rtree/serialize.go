package rtree

import (
	"encoding/binary"
	"fmt"

	"subzero/internal/binenc"
	"subzero/internal/grid"
)

// Encode serializes the tree's items (rank, count, then rect+id per item,
// in tree order). Decoding bulk-loads a fresh tree, so node structure need
// not be preserved; this keeps the format trivially forward-compatible and
// lets a reopened store regain a well-packed index.
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

// Decode reconstructs a tree from Encode output via STR bulk load.
func Decode(data []byte) (*Tree, error) {
	rank, read := binary.Uvarint(data)
	if read <= 0 || rank == 0 || rank > 64 {
		return nil, fmt.Errorf("rtree: bad encoded rank")
	}
	off := read
	count, read := binary.Uvarint(data[off:])
	if read <= 0 {
		return nil, fmt.Errorf("rtree: truncated item count")
	}
	off += read
	// Every item takes at least 2·rank+2 bytes, which bounds the
	// preallocation by the input's size.
	hint := min(count, uint64(len(data))/(2*rank+2))
	boxes := make([]int, 0, hint*2*rank)
	ids := make([]uint64, 0, hint)
	for i := uint64(0); i < count; i++ {
		r, n, err := binenc.DecodeRect(data[off:])
		if err != nil {
			return nil, fmt.Errorf("rtree: item %d: %w", i, err)
		}
		if r.Rank() != int(rank) {
			return nil, fmt.Errorf("rtree: item %d has rank %d, tree rank %d", i, r.Rank(), rank)
		}
		off += n
		id, read := binary.Uvarint(data[off:])
		if read <= 0 {
			return nil, fmt.Errorf("rtree: truncated item %d id", i)
		}
		off += read
		boxes = append(append(boxes, r.Lo...), r.Hi...)
		ids = append(ids, id)
	}
	return BulkLoadBoxes(int(rank), boxes, ids), nil
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
