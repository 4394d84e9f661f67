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
// rectangles that cover exactly the set cells and calls fn for each until
// fn returns false. Each run of a row — the cells along the last dimension
// — starts a rectangle, and the rectangle grows down the second-to-last
// dimension for as long as the next rows hold the same run: a column, a
// band of equal runs and a block of full rows are one rectangle each.
// Rectangles come in the order they close. The rectangle passed to fn
// lives in storage the bitmap keeps and is only valid for the duration of
// the call; the bitmap also keeps the open rectangles between calls, so an
// iteration allocates only to grow that storage (and above rank 4), and
// two iterations of one bitmap must not overlap.
//
// The query executor drives declared operator geometry with it: one
// rectangle of source cells maps to one rectangle of destination cells.
func (b *Bitmap) IterateRects(fn func(r grid.Rect) bool) {
	rank := b.space.Rank()
	shape := b.space.Shape()
	box := cornersIn(b.iter[:], rank)
	if rank == 1 {
		b.IterateRuns(func(start, length uint64) bool {
			box.Lo[0], box.Hi[0] = int(start), int(start+length-1)
			return fn(box)
		})
		return
	}
	m := rectMerger{
		b: b, box: box,
		rowLen: uint64(shape[rank-1]), slabRows: shape[rank-2],
		open: b.open[:0], row: b.row[:0], openEnd: -2, rowAt: -1,
	}
	// Runs come in ascending order, so a run's row is mostly the row of
	// the run before it or the next one: rowBase tracks the first cell of
	// row without a division per run.
	row, rowBase := 0, uint64(0)
	b.IterateRuns(func(start, length uint64) bool {
		for s, e := start, start+length; s < e; {
			if d := s - rowBase; d >= m.rowLen {
				if d < 2*m.rowLen {
					row, rowBase = row+1, rowBase+m.rowLen
				} else {
					row = int(s / m.rowLen)
					rowBase = uint64(row) * m.rowLen
				}
			}
			off := s - rowBase
			if off != 0 || e-s < m.rowLen {
				n := min(e-s, m.rowLen-off)
				m.add(fn, row, row, int(off), int(off+n-1))
				s += n
				continue
			}
			// Full rows: as many as the run holds within the slab.
			rows := min(int((e-s)/m.rowLen), m.slabRows-row%m.slabRows)
			m.add(fn, row, row+rows-1, 0, int(m.rowLen)-1)
			s += uint64(rows) * m.rowLen
		}
		return !m.stopped
	})
	m.flush(fn)
}

// rectMerger grows IterateRects' rectangles down the rows of a bitmap of
// rank 2 or more. Rows are numbered in cell order; a slab is slabRows
// consecutive rows that differ only in the second-to-last dimension, and
// no rectangle crosses a slab boundary. open holds the rectangles that
// reach row openEnd, and row the runs of rows rowAt..rowTo (more than one
// row only for a block of full rows), each as (first column, last column,
// first row) sorted by column. Its methods take IterateRects' fn rather
// than keep it, so the caller's callback stays off the heap.
type rectMerger struct {
	b        *Bitmap
	box      grid.Rect
	rowLen   uint64
	slabRows int
	open     []int
	row      []int
	openEnd  int
	rowAt    int
	rowTo    int
	stopped  bool
}

// add records the run c0..c1 of rows r0..r1, finishing the rows before.
func (m *rectMerger) add(fn func(grid.Rect) bool, r0, r1, c0, c1 int) {
	if r0 != m.rowAt {
		m.finishRow(fn)
		m.rowAt, m.rowTo = r0, r1
	}
	m.row = append(m.row, c0, c1, r0)
}

// finishRow grows each open rectangle whose run the gathered rows repeat
// right below it, and closes the others.
func (m *rectMerger) finishRow(fn func(grid.Rect) bool) {
	if len(m.row) == 0 {
		return
	}
	// At rank 2 the one slab holds every row, so only a rank above it
	// pays for the boundary test.
	below := m.rowAt == m.openEnd+1 && (len(m.box.Lo) == 2 || m.rowAt%m.slabRows != 0)
	i := 0
	for k := 0; k < len(m.row); k += 3 {
		for below && i < len(m.open) && m.open[i] <= m.row[k] {
			c0, c1, r0 := m.open[i], m.open[i+1], m.open[i+2]
			i += 3
			if c0 == m.row[k] && c1 == m.row[k+1] {
				m.row[k+2] = r0
				break
			}
			m.emit(fn, c0, c1, r0)
		}
	}
	for ; i < len(m.open); i += 3 {
		m.emit(fn, m.open[i], m.open[i+1], m.open[i+2])
	}
	m.open, m.row = m.row, m.open[:0]
	m.openEnd = m.rowTo
}

// emit hands fn the rectangle of columns c0..c1 and rows r0..openEnd.
func (m *rectMerger) emit(fn func(grid.Rect) bool, c0, c1, r0 int) {
	if m.stopped {
		return
	}
	lo, hi := m.box.Lo, m.box.Hi
	last := len(lo) - 1
	if last == 1 {
		lo[0], hi[0] = r0, m.openEnd
	} else {
		m.b.space.UnravelInto(uint64(r0)*m.rowLen, lo)
		m.b.space.UnravelInto(uint64(m.openEnd)*m.rowLen, hi)
	}
	lo[last], hi[last] = c0, c1
	m.stopped = !fn(m.box)
}

// flush closes every rectangle and hands the storage back to the bitmap.
func (m *rectMerger) flush(fn func(grid.Rect) bool) {
	m.finishRow(fn)
	for i := 0; i < len(m.open); i += 3 {
		m.emit(fn, m.open[i], m.open[i+1], m.open[i+2])
	}
	m.b.open, m.b.row = m.open[:0], m.row[:0]
}
