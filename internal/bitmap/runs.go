package bitmap

import (
	"math/bits"

	"subzero/internal/grid"
)

// Word-parallel span operations. The lineage lookup hot path stores and
// decodes cell sets as runs of consecutive indices; these methods apply
// whole runs to the intermediate boolean arrays 64 cells per step instead
// of bit-by-bit.

// SetRun marks the cells [start, start+n), clipped to the space, and
// returns the number newly set. Interior words are set 64 bits at a time.
func (b *Bitmap) SetRun(start, n uint64) uint64 {
	size := b.space.Size()
	if n == 0 || start >= size {
		return 0
	}
	end := start + n // exclusive
	if end > size || end < start {
		end = size
	}
	var added uint64
	w0, w1 := start/64, (end-1)/64
	if w0 == w1 {
		mask := (uint64(1)<<(end-start) - 1) << (start % 64)
		added = uint64(bits.OnesCount64(mask &^ b.words[w0]))
		b.words[w0] |= mask
		b.count += added
		return added
	}
	first := ^uint64(0) << (start % 64)
	added += uint64(bits.OnesCount64(first &^ b.words[w0]))
	b.words[w0] |= first
	for w := w0 + 1; w < w1; w++ {
		added += uint64(bits.OnesCount64(^b.words[w]))
		b.words[w] = ^uint64(0)
	}
	last := ^uint64(0) >> (64 - (end-1)%64 - 1)
	added += uint64(bits.OnesCount64(last &^ b.words[w1]))
	b.words[w1] |= last
	b.count += added
	return added
}

// AnyInRange reports whether any cell in [start, start+n) is set, testing
// 64 cells per word. Out-of-range portions are ignored.
func (b *Bitmap) AnyInRange(start, n uint64) bool {
	size := b.space.Size()
	if n == 0 || start >= size {
		return false
	}
	end := start + n
	if end > size || end < start {
		end = size
	}
	w0, w1 := start/64, (end-1)/64
	if w0 == w1 {
		mask := (uint64(1)<<(end-start) - 1) << (start % 64)
		return b.words[w0]&mask != 0
	}
	if b.words[w0]&(^uint64(0)<<(start%64)) != 0 {
		return true
	}
	for w := w0 + 1; w < w1; w++ {
		if b.words[w] != 0 {
			return true
		}
	}
	last := ^uint64(0) >> (64 - (end-1)%64 - 1)
	return b.words[w1]&last != 0
}

// IterateRuns calls fn with each maximal run of set cells — (start,
// length) with every cell in [start, start+length) set — in ascending
// order until fn returns false. Full and empty words are skipped 64 cells
// at a time.
func (b *Bitmap) IterateRuns(fn func(start, length uint64) bool) {
	var runStart uint64
	inRun := false
	for w := range b.words {
		word := b.words[w]
		base := uint64(w) * 64
		switch {
		case word == 0:
			if inRun {
				if !fn(runStart, base-runStart) {
					return
				}
				inRun = false
			}
		case word == ^uint64(0):
			if !inRun {
				runStart, inRun = base, true
			}
		default:
			pos := uint64(0)
			for pos < 64 {
				if !inRun {
					rest := word >> pos
					if rest == 0 {
						break
					}
					pos += uint64(bits.TrailingZeros64(rest))
					runStart, inRun = base+pos, true
				} else {
					rest := ^(word >> pos)
					if rest == 0 {
						break // run continues into the next word
					}
					pos += uint64(bits.TrailingZeros64(rest))
					if pos >= 64 {
						break // run ends at the word boundary; the next
						// word decides whether it continues
					}
					if !fn(runStart, base+pos-runStart) {
						return
					}
					inRun = false
				}
			}
		}
	}
	if inRun {
		// Trailing bits past Size() are always zero, so this run ends at
		// the last word boundary == the space size.
		fn(runStart, uint64(len(b.words))*64-runStart)
	}
}

// IterateRects decomposes the set cells into disjoint axis-aligned
// rectangles that cover exactly the set cells and calls fn for each in
// ascending row-major order until fn returns false. Runs within one row
// become a single rectangle; blocks of consecutive full rows merge into
// one taller rectangle. The rectangle passed to fn aliases internal
// scratch and is only valid for the duration of the call.
//
// The lineage index uses this to turn a query bitmap into a handful of
// R-tree window queries instead of one point query per cell.
func (b *Bitmap) IterateRects(fn func(r grid.Rect) bool) {
	rank := b.space.Rank()
	shape := b.space.Shape()
	lo := make(grid.Coord, rank)
	hi := make(grid.Coord, rank)
	if rank == 1 {
		b.IterateRuns(func(start, length uint64) bool {
			lo[0], hi[0] = int(start), int(start+length-1)
			return fn(grid.Rect{Lo: lo, Hi: hi})
		})
		return
	}
	rowLen := uint64(shape[rank-1])
	b.IterateRuns(func(start, length uint64) bool {
		s, e := start, start+length-1
		for s <= e {
			rowOff := s % rowLen
			rowEnd := s - rowOff + rowLen - 1
			if rowOff != 0 || e < rowEnd {
				// Partial row segment.
				pe := min(e, rowEnd)
				b.space.UnravelInto(s, lo)
				b.space.UnravelInto(pe, hi)
				if !fn(grid.Rect{Lo: lo, Hi: hi}) {
					return false
				}
				if pe == e {
					break
				}
				s = pe + 1
				continue
			}
			// One or more full rows; merge as many as stay within the
			// current slab of the second-to-last dimension.
			rows := (e - s + 1) / rowLen
			b.space.UnravelInto(s, lo)
			if left := uint64(shape[rank-2] - lo[rank-2]); rows > left {
				rows = left
			}
			last := s + rows*rowLen - 1
			b.space.UnravelInto(last, hi)
			if !fn(grid.Rect{Lo: lo, Hi: hi}) {
				return false
			}
			s = last + 1
		}
		return true
	})
}
