package rtree

// EncodedLen returns the size of the tree's items serialized (rank, count,
// then rect+id per item as uvarints, in tree order). Nothing writes those
// bytes: a store keeps its index in memory and charges this size for it,
// and the cost model charges it against the storage budget for *Many
// encodings. The tests' Encode writes them, to pin trees and this length.
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
