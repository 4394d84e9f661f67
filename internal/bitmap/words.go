package bitmap

import "math/bits"

// Container block operations. The lineage record codec stores cell sets as
// fixed 1024-cell tiles (internal/binenc containers); a tile's bit block
// is BlockWords uint64 words whose first bit is a 64-aligned cell index,
// so lookups can OR and AND whole words against the query bitmaps
// without materializing per-cell slices.

// BlockWords is the word width of one container block: 16 words =
// 1024 cells, matching binenc.TileCells.
const BlockWords = 16

// OrBlock ORs a container block whose first bit is baseCell into the
// bitmap, returning the number of cells newly set. baseCell must be
// 64-aligned (container tile bases are 1024-aligned). Bits beyond the
// bitmap's space are clipped, mirroring Set.
func (b *Bitmap) OrBlock(baseCell uint64, blk *[BlockWords]uint64) uint64 {
	wu := baseCell / 64
	if wu >= uint64(len(b.words)) {
		return 0
	}
	w0 := int(wu)
	n := len(b.words) - w0
	if n > BlockWords {
		n = BlockWords
	}
	last := len(b.words) - 1
	rem := b.space.Size() % 64
	var added uint64
	for i := 0; i < n; i++ {
		word := blk[i]
		if w0+i == last && rem != 0 {
			word &= uint64(1)<<rem - 1
		}
		if fresh := word &^ b.words[w0+i]; fresh != 0 {
			added += uint64(bits.OnesCount64(fresh))
			b.words[w0+i] |= fresh
		}
	}
	b.count += added
	return added
}

// NextBlock copies into blk the first container block, at or after the one
// starting at baseCell, that holds a set cell, and returns that block's
// first cell; ok is false when no cell at or after baseCell is set. baseCell
// must be BlockWords*64-aligned. Words past the bitmap's end copy as zero.
func (b *Bitmap) NextBlock(baseCell uint64, blk *[BlockWords]uint64) (base uint64, ok bool) {
	for w0 := baseCell / 64; w0 < uint64(len(b.words)); w0 += BlockWords {
		ws := b.words[w0:min(w0+BlockWords, uint64(len(b.words)))]
		for _, w := range ws {
			if w != 0 {
				*blk = [BlockWords]uint64{}
				copy(blk[:], ws)
				return w0 * 64, true
			}
		}
	}
	return 0, false
}

// AnyBlock reports whether any set cell of the bitmap falls inside the
// container block at baseCell. baseCell must be 64-aligned.
func (b *Bitmap) AnyBlock(baseCell uint64, blk *[BlockWords]uint64) bool {
	wu := baseCell / 64
	if wu >= uint64(len(b.words)) {
		return false
	}
	w0 := int(wu)
	n := len(b.words) - w0
	if n > BlockWords {
		n = BlockWords
	}
	for i := 0; i < n; i++ {
		if b.words[w0+i]&blk[i] != 0 {
			return true
		}
	}
	return false
}
