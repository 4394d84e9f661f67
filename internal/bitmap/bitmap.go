// Package bitmap implements dense boolean arrays over an array shape.
//
// The SubZero query executor (paper §VI-C) stores the intermediate result of
// every lineage-query step "in an in-memory boolean array with the same
// dimensions as the input (backward query) or output (forward query) array".
// The bitmap de-duplicates the large fan-in/fan-out result sets produced by
// region lineage, detects saturation so an operator can be closed early, and
// feeds the entire-array optimization.
package bitmap

import (
	"math/bits"

	"subzero/internal/grid"
)

// Bitmap is a fixed-size set of cell indices over a shape.
type Bitmap struct {
	space *grid.Space
	words []uint64
	count uint64
	// iter and scratch hold the corners of IterateRects' rectangle and of
	// ScratchRect's. A bitmap lives on the heap, so rectangles over them
	// cost no allocation of their own up to fixedRank.
	iter, scratch [2 * fixedRank]int
	// open and row keep IterateRects' growing rectangles between calls,
	// so it allocates only to grow them.
	open, row []int
}

// fixedRank is the largest rank whose rectangle corners a Bitmap holds
// inline; IterateRects and ScratchRect allocate above it.
const fixedRank = 4

// New creates an empty bitmap over the given space.
func New(space *grid.Space) *Bitmap {
	n := (space.Size() + 63) / 64
	return &Bitmap{space: space, words: make([]uint64, n)}
}

// Space returns the space the bitmap covers.
func (b *Bitmap) Space() *grid.Space { return b.space }

// Size returns the number of addressable cells.
func (b *Bitmap) Size() uint64 { return b.space.Size() }

// Count returns the number of set cells.
func (b *Bitmap) Count() uint64 { return b.count }

// Full reports whether every cell is set.
func (b *Bitmap) Full() bool { return b.count == b.space.Size() }

// Empty reports whether no cell is set.
func (b *Bitmap) Empty() bool { return b.count == 0 }

// Set marks a cell, returning true if it was newly set. Out-of-range
// indices are ignored and return false: region lineage produced by UDFs may
// legitimately reference a superset of the array (the paper permits
// supersets of exact lineage), so the executor clips rather than fails.
func (b *Bitmap) Set(idx uint64) bool {
	if idx >= b.space.Size() {
		return false
	}
	w, m := idx/64, uint64(1)<<(idx%64)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.count++
	return true
}

// SetAll marks every cell in the bitmap (the entire-array optimization).
func (b *Bitmap) SetAll() {
	size := b.space.Size()
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if rem := size % 64; rem != 0 {
		b.words[len(b.words)-1] = (uint64(1) << rem) - 1
	}
	b.count = size
}

// Get reports whether a cell is set. Out-of-range indices return false.
func (b *Bitmap) Get(idx uint64) bool {
	if idx >= b.space.Size() {
		return false
	}
	return b.words[idx/64]&(uint64(1)<<(idx%64)) != 0
}

// SetCells marks every index in cells, returning the number newly set.
func (b *Bitmap) SetCells(cells []uint64) uint64 {
	var added uint64
	for _, idx := range cells {
		if b.Set(idx) {
			added++
		}
	}
	return added
}

// SetRect marks every cell inside the rectangle (clipped to the shape),
// returning the number newly set. A rectangle of another rank sets
// nothing. Each row of the clipped rectangle — its extent along the last
// dimension — is one word-parallel SetRun, and rows that span the whole
// last dimension merge into one run; nothing is allocated.
func (b *Bitmap) SetRect(r grid.Rect) uint64 {
	shape := b.space.Shape()
	if len(r.Lo) != len(shape) || len(r.Hi) != len(shape) {
		return 0
	}
	last := len(shape) - 1
	lo, hi := max(r.Lo[last], 0), min(r.Hi[last], shape[last]-1)
	if lo > hi {
		return 0
	}
	return b.setRows(r, 0, uint64(lo), uint64(hi-lo+1))
}

// setRows sets the rows of r (clipped to the space) whose first cell is
// base plus a multiple of the strides of dimensions d and up, as
// anyInRows walks them; a row is width cells long.
func (b *Bitmap) setRows(r grid.Rect, d int, base, width uint64) uint64 {
	shape := b.space.Shape()
	last := len(shape) - 1
	if d == last {
		return b.SetRun(base, width)
	}
	stride := b.space.Stride(d)
	lo, hi := max(r.Lo[d], 0), min(r.Hi[d], shape[d]-1)
	if lo > hi {
		return 0
	}
	base += uint64(lo) * stride
	if d < last-1 {
		var added uint64
		for x := lo; x <= hi; x, base = x+1, base+stride {
			added += b.setRows(r, d+1, base, width)
		}
		return added
	}
	if width == uint64(shape[last]) {
		// Whole rows are contiguous along the second-to-last dimension.
		return b.SetRun(base, uint64(hi-lo+1)*width)
	}
	var added uint64
	for x := lo; x <= hi; x, base = x+1, base+stride {
		if width > 1 {
			added += b.SetRun(base, width)
		} else if b.Set(base) { // a column: one cell per row
			added++
		}
	}
	return added
}

// ScratchRect returns a rectangle of the bitmap's rank whose corners live
// in storage the bitmap keeps, for a caller that computes a rectangle to
// SetRect without allocating. Its contents are undefined, it stays valid
// until the next ScratchRect call on b, and IterateRects does not touch
// it.
func (b *Bitmap) ScratchRect() grid.Rect {
	return cornersIn(b.scratch[:], b.space.Rank())
}

// cornersIn returns a rectangle of the given rank over buf, or over fresh
// storage when buf is too short.
func cornersIn(buf []int, rank int) grid.Rect {
	if 2*rank > len(buf) {
		buf = make([]int, 2*rank)
	}
	return grid.Rect{Lo: buf[:rank:rank], Hi: buf[rank : 2*rank : 2*rank]}
}

// ComplementIn sets b to the cells of a it does not hold (b = a AND NOT b),
// a word at a time. a must cover a space of b's size.
func (b *Bitmap) ComplementIn(a *Bitmap) {
	var n uint64
	for i, w := range a.words {
		b.words[i] = w &^ b.words[i]
		n += uint64(bits.OnesCount64(b.words[i]))
	}
	b.count = n
}

// IntersectsRect reports whether any set cell lies inside the rectangle.
// Parts of r outside the space are ignored, and a rectangle of another
// rank holds no cell. Each row of the clipped rectangle — its extent along
// the last dimension — is one word-parallel AnyInRange; nothing is
// allocated.
func (b *Bitmap) IntersectsRect(r grid.Rect) bool {
	shape := b.space.Shape()
	if len(r.Lo) != len(shape) || len(r.Hi) != len(shape) {
		return false
	}
	last := len(shape) - 1
	lo, hi := max(r.Lo[last], 0), min(r.Hi[last], shape[last]-1)
	if lo > hi {
		return false
	}
	return b.anyInRows(r, 0, uint64(lo), uint64(hi-lo+1))
}

// anyInRows reports whether a set cell lies in a row of r (clipped to the
// space) whose first cell is base plus a multiple of the strides of
// dimensions d and up; a row is width cells long. Dimensions before d are
// already fixed in base, and a dimension r misses leaves nothing to test.
func (b *Bitmap) anyInRows(r grid.Rect, d int, base, width uint64) bool {
	shape := b.space.Shape()
	if d == len(shape)-1 {
		return b.AnyInRange(base, width)
	}
	stride := b.space.Stride(d)
	lo, hi := max(r.Lo[d], 0), min(r.Hi[d], shape[d]-1)
	base += uint64(lo) * stride
	for x := lo; x <= hi; x, base = x+1, base+stride {
		if d == len(shape)-2 {
			if b.AnyInRange(base, width) {
				return true
			}
		} else if b.anyInRows(r, d+1, base, width) {
			return true
		}
	}
	return false
}

// Bounds writes the bounding box of the set cells into lo and hi (each of
// the space's rank) and reports whether any cell is set. It walks the set
// cells as runs and does not allocate.
func (b *Bitmap) Bounds(lo, hi grid.Coord) bool {
	if b.count == 0 {
		return false
	}
	shape := b.space.Shape()
	for d, n := range shape {
		lo[d], hi[d] = n, -1
	}
	b.IterateRuns(func(start, length uint64) bool {
		first, last := start, start+length-1
		for d, n := range shape {
			// The run's cells take the consecutive slab numbers
			// first/stride .. last/stride along dimension d; their
			// coordinates are those numbers mod n, which cover the whole
			// extent once they wrap.
			stride := b.space.Stride(d)
			a, z := first/stride, last/stride
			ca, cz := int(a%uint64(n)), int(z%uint64(n))
			if z-a >= uint64(n) || ca > cz {
				ca, cz = 0, n-1
			}
			lo[d], hi[d] = min(lo[d], ca), max(hi[d], cz)
		}
		return true
	})
	return true
}

// Iterate calls fn with each set index in ascending order until fn returns
// false.
func (b *Bitmap) Iterate(fn func(idx uint64) bool) {
	for w, word := range b.words {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			if !fn(uint64(w)*64 + uint64(bit)) {
				return
			}
			word &= word - 1
		}
	}
}

// Cells appends all set indices to dst in ascending order and returns the
// extended slice.
func (b *Bitmap) Cells(dst []uint64) []uint64 {
	b.Iterate(func(idx uint64) bool {
		dst = append(dst, idx)
		return true
	})
	return dst
}

// Clear resets the bitmap to empty.
func (b *Bitmap) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.count = 0
}

// FromCells builds a bitmap over space with the given cells set.
func FromCells(space *grid.Space, cells []uint64) *Bitmap {
	b := New(space)
	b.SetCells(cells)
	return b
}
