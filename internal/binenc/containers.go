package binenc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Tiled container cell-set codec. The cell space is cut into fixed
// tiles of TileCells indices and each non-empty tile stores its cells in
// whichever container form encodes smallest — roaring-style, but sized
// for region lineage:
//
//	array   — cell count + tile-local offsets as delta varints; wins for
//	          a few scattered cells per tile
//	runs    — run count + tile-local (gap, length) varint pairs; wins for
//	          clustered regions
//	bitmap  — 128 fixed little-endian bytes (16 uint64 words); wins for
//	          medium-density scatter, and bounds every tile at 1 bit/cell
//	full    — no payload; the tile is completely covered
//
// The layout is:
//
//	uvarint(totalCount)
//	uvarint(nTiles)            0 = sparse-direct form (below)
//	per tile: uvarint(tileGap<<2 | type) + payload
//
// The first tile's gap is its absolute tile index; later gaps are
// tile−prevTile−1, so tiles are strictly increasing by construction.
// Tiny sets (≤ SparseDirectMax cells — the singleton per-cell pairs that
// dominate many workloads) skip tiling entirely: nTiles==0 is followed by
// the cells as first+gap varints.
//
// TileCells is a multiple of 64, so a tile's bit block aligns with the
// uint64 words of the query bitmaps and lookups can OR/AND whole words
// against a decoded container without materializing per-cell slices.
const (
	// TileCells is the number of cell indices covered by one tile.
	TileCells = 1024
	// TileWords is the uint64-word width of one tile's bit block.
	TileWords = TileCells / 64
	// SparseDirectMax is the largest cell count encoded in sparse-direct
	// form instead of tiles.
	SparseDirectMax = 8

	tileShift = 10
	tileMask  = TileCells - 1
)

// Container types, packed into the low two bits of each tile header.
const (
	ContainerArray  = 0
	ContainerRuns   = 1
	ContainerBitmap = 2
	ContainerFull   = 3
)

// maxTile keeps tile<<tileShift from overflowing a uint64 cell index.
const maxTile = uint64(1)<<(64-tileShift) - 1

// AppendCellSetContainers appends a sorted, deduplicated cell-index set
// in tiled container form.
func AppendCellSetContainers(dst []byte, cells []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cells)))
	if len(cells) == 0 {
		return dst
	}
	if len(cells) <= SparseDirectMax {
		dst = append(dst, 0) // nTiles == 0: sparse-direct form
		prev := uint64(0)
		for i, c := range cells {
			if i == 0 {
				dst = binary.AppendUvarint(dst, c)
			} else {
				dst = binary.AppendUvarint(dst, c-prev)
			}
			prev = c
		}
		return dst
	}
	nTiles := 0
	for i := 0; i < len(cells); i = tileEnd(cells, i) {
		nTiles++
	}
	dst = binary.AppendUvarint(dst, uint64(nTiles))
	prevTile := uint64(0)
	for i := 0; i < len(cells); {
		j := tileEnd(cells, i)
		seg := cells[i:j]
		tile := cells[i] >> tileShift
		gap := tile
		if i > 0 {
			gap = tile - prevTile - 1
		}
		typ := chooseContainer(seg)
		dst = binary.AppendUvarint(dst, gap<<2|uint64(typ))
		dst = appendContainer(dst, typ, tile<<tileShift, seg)
		prevTile = tile
		i = j
	}
	return dst
}

// AppendTileSet appends the cells of one tile — tile-local offsets below
// TileCells, sorted and deduplicated — as a container-form cell set laid
// out for the reader rather than for size: a runs container of at most
// tileSetMaxRuns runs or an array container of at most tileSetMaxArray
// cells when one is smaller than the 128-byte bitmap, else the bitmap, so
// expanding it (ExpandTileSet) never decodes more than a few dozen
// varints. Sparse-direct and full sets are as AppendCellSetContainers
// writes them.
func AppendTileSet(dst []byte, cells []uint64) []byte {
	n := len(cells)
	if n <= SparseDirectMax || n == TileCells {
		return AppendCellSetContainers(dst, cells)
	}
	typ := byte(ContainerBitmap)
	best := TileWords * 8
	if runs, size := runsLen(cells); runs <= tileSetMaxRuns && size <= best {
		typ, best = ContainerRuns, size
	}
	if size := arrayLen(cells); n <= tileSetMaxArray && size < best {
		typ = ContainerArray
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = append(dst, 1, typ) // one tile, tile 0
	return appendContainer(dst, typ, 0, cells)
}

// The largest runs and array containers AppendTileSet writes. On the
// lineage package's BenchmarkOneLookup, caps from 4 runs and 8 cells up to
// 16 runs and 32 cells measure alike, and bitmaps only (no runs or array)
// close to them; with no cap, the size-based choice AppendCellSetContainers
// makes, backward lookups run 3–4× slower, decoding array and runs
// containers of a hundred varints and more per tile.
const (
	tileSetMaxRuns  = 8
	tileSetMaxArray = 16
)

// tileEnd returns the index just past the cells sharing cells[i]'s tile.
func tileEnd(cells []uint64, i int) int {
	tile := cells[i] >> tileShift
	j := i + 1
	for j < len(cells) && cells[j]>>tileShift == tile {
		j++
	}
	return j
}

// chooseContainer picks the smallest container form for one tile's cells,
// preferring runs over array over bitmap on ties so the encoding is
// deterministic (golden bytes and rebuild determinism depend on it).
func chooseContainer(seg []uint64) byte {
	if len(seg) == TileCells {
		return ContainerFull
	}
	_, runsBytes := runsLen(seg)
	arrayBytes := arrayLen(seg)
	typ, best := byte(ContainerRuns), runsBytes
	if arrayBytes < best {
		typ, best = ContainerArray, arrayBytes
	}
	if TileWords*8 < best {
		typ = ContainerBitmap
	}
	return typ
}

// runsLen returns the run count of one tile's cells and the size of their
// runs container payload.
func runsLen(seg []uint64) (nRuns, size int) {
	base := seg[0] &^ uint64(tileMask)
	prevEnd := uint64(0)
	for i := 0; i < len(seg); {
		j := i + 1
		for j < len(seg) && seg[j] == seg[j-1]+1 {
			j++
		}
		start := seg[i] - base
		size += uvarintLen(start-prevEnd) + uvarintLen(uint64(j-i))
		prevEnd = start + uint64(j-i)
		nRuns++
		i = j
	}
	return nRuns, size + uvarintLen(uint64(nRuns))
}

// arrayLen returns the size of one tile's array container payload.
func arrayLen(seg []uint64) int {
	base := seg[0] &^ uint64(tileMask)
	size := uvarintLen(uint64(len(seg)))
	prev := uint64(0)
	for i, c := range seg {
		off := c - base
		if i == 0 {
			size += uvarintLen(off)
		} else {
			size += uvarintLen(off - prev)
		}
		prev = off
	}
	return size
}

// uvarintLen returns the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendContainer appends one tile's payload in the chosen form.
func appendContainer(dst []byte, typ byte, base uint64, seg []uint64) []byte {
	switch typ {
	case ContainerFull:
		return dst
	case ContainerBitmap:
		var w [TileWords]uint64
		for _, c := range seg {
			off := c - base
			w[off/64] |= uint64(1) << (off % 64)
		}
		for _, word := range w {
			dst = binary.LittleEndian.AppendUint64(dst, word)
		}
		return dst
	case ContainerArray:
		dst = binary.AppendUvarint(dst, uint64(len(seg)))
		prev := uint64(0)
		for i, c := range seg {
			off := c - base
			if i == 0 {
				dst = binary.AppendUvarint(dst, off)
			} else {
				dst = binary.AppendUvarint(dst, off-prev)
			}
			prev = off
		}
		return dst
	default: // ContainerRuns
		nRuns := 0
		for i := 0; i < len(seg); {
			j := i + 1
			for j < len(seg) && seg[j] == seg[j-1]+1 {
				j++
			}
			nRuns++
			i = j
		}
		dst = binary.AppendUvarint(dst, uint64(nRuns))
		prevEnd := uint64(0)
		for i := 0; i < len(seg); {
			j := i + 1
			for j < len(seg) && seg[j] == seg[j-1]+1 {
				j++
			}
			start := seg[i] - base
			dst = binary.AppendUvarint(dst, start-prevEnd)
			dst = binary.AppendUvarint(dst, uint64(j-i))
			prevEnd = start + uint64(j-i)
			i = j
		}
		return dst
	}
}

// WalkContainers parses a container-form cell set without materializing
// it: sparse-direct cells stream through sparse, and each tile streams
// through container as (tileBase, type, payload offset, payload length)
// with offsets into src. Either callback may be nil (the walk still
// parses and validates). It returns the declared cell count and the
// bytes consumed.
//
// The walk validates everything a consumer relies on: strictly
// increasing cells and tiles, canonical in-tile gaps, run lengths ≥ 1,
// payloads inside the buffer, and the per-container cell counts summing
// to the declared total — so payloads it yields can later be expanded
// without re-validation.
func WalkContainers(src []byte,
	sparse func(cell uint64) bool,
	container func(tileBase uint64, typ byte, payOff, payLen int) bool,
) (count uint64, n int, err error) {
	total, read := binary.Uvarint(src)
	if read <= 0 {
		return 0, 0, fmt.Errorf("binenc: truncated container cell count")
	}
	off := read
	if total == 0 {
		return 0, off, nil
	}
	nTiles, read := binary.Uvarint(src[off:])
	if read <= 0 {
		return 0, 0, fmt.Errorf("binenc: truncated container tile count")
	}
	off += read
	if nTiles == 0 {
		if total > SparseDirectMax {
			return 0, 0, fmt.Errorf("binenc: sparse-direct form holds %d cells, at most %d", total, SparseDirectMax)
		}
		prev := uint64(0)
		emitting := sparse != nil
		for i := uint64(0); i < total; i++ {
			d, read := binary.Uvarint(src[off:])
			if read <= 0 {
				return 0, 0, fmt.Errorf("binenc: truncated sparse cell %d/%d", i, total)
			}
			off += read
			if i == 0 {
				prev = d
			} else {
				if d == 0 || prev+d < prev {
					return 0, 0, fmt.Errorf("binenc: non-increasing sparse cell %d/%d", i, total)
				}
				prev += d
			}
			if emitting {
				emitting = sparse(prev)
			}
		}
		return total, off, nil
	}
	if nTiles > uint64(len(src)) { // each tile takes >=1 header byte
		return 0, 0, fmt.Errorf("binenc: tile count %d exceeds buffer", nTiles)
	}
	var got uint64
	tile := uint64(0)
	emitting := container != nil
	for i := uint64(0); i < nTiles; i++ {
		hdr, read := binary.Uvarint(src[off:])
		if read <= 0 {
			return 0, 0, fmt.Errorf("binenc: truncated tile header %d/%d", i, nTiles)
		}
		off += read
		typ := byte(hdr & 3)
		gap := hdr >> 2
		if i == 0 {
			tile = gap
		} else {
			tile += gap + 1
			if tile <= gap { // wrapped
				return 0, 0, fmt.Errorf("binenc: tile index overflow at tile %d/%d", i, nTiles)
			}
		}
		if tile > maxTile {
			return 0, 0, fmt.Errorf("binenc: tile index %d overflows cell space", tile)
		}
		cnt, payLen, err := parseContainerPayload(typ, src[off:])
		if err != nil {
			return 0, 0, fmt.Errorf("binenc: tile %d/%d: %w", i, nTiles, err)
		}
		got += cnt
		if emitting {
			emitting = container(tile<<tileShift, typ, off, payLen)
		}
		off += payLen
	}
	if got != total {
		return 0, 0, fmt.Errorf("binenc: container cells sum to %d, declared %d", got, total)
	}
	return total, off, nil
}

// parseContainerPayload validates one container payload and returns its
// cell count and encoded length.
func parseContainerPayload(typ byte, src []byte) (count uint64, n int, err error) {
	switch typ {
	case ContainerFull:
		return TileCells, 0, nil
	case ContainerBitmap:
		if len(src) < TileWords*8 {
			return 0, 0, fmt.Errorf("truncated bitmap container")
		}
		for i := 0; i < TileWords; i++ {
			count += uint64(bits.OnesCount64(binary.LittleEndian.Uint64(src[i*8:])))
		}
		if count == 0 {
			return 0, 0, fmt.Errorf("empty bitmap container")
		}
		return count, TileWords * 8, nil
	case ContainerArray:
		cells, read := binary.Uvarint(src)
		if read <= 0 {
			return 0, 0, fmt.Errorf("truncated array container count")
		}
		if cells == 0 || cells >= TileCells {
			return 0, 0, fmt.Errorf("array container of %d cells", cells)
		}
		off := read
		prev := uint64(0)
		for i := uint64(0); i < cells; i++ {
			d, read := binary.Uvarint(src[off:])
			if read <= 0 {
				return 0, 0, fmt.Errorf("truncated array container cell %d/%d", i, cells)
			}
			off += read
			if i == 0 {
				prev = d
			} else {
				if d == 0 {
					return 0, 0, fmt.Errorf("non-increasing array container cell %d/%d", i, cells)
				}
				prev += d
			}
			if prev >= TileCells {
				return 0, 0, fmt.Errorf("array container cell %d past tile end", prev)
			}
		}
		return cells, off, nil
	default: // ContainerRuns
		nRuns, read := binary.Uvarint(src)
		if read <= 0 {
			return 0, 0, fmt.Errorf("truncated run container count")
		}
		if nRuns == 0 || nRuns > TileCells/2 {
			return 0, 0, fmt.Errorf("run container of %d runs", nRuns)
		}
		off := read
		pos := uint64(0)
		for i := uint64(0); i < nRuns; i++ {
			gap, read := binary.Uvarint(src[off:])
			if read <= 0 {
				return 0, 0, fmt.Errorf("truncated run gap %d/%d", i, nRuns)
			}
			off += read
			length, read := binary.Uvarint(src[off:])
			if read <= 0 {
				return 0, 0, fmt.Errorf("truncated run length %d/%d", i, nRuns)
			}
			off += read
			if length == 0 {
				return 0, 0, fmt.Errorf("zero-length run %d/%d", i, nRuns)
			}
			if i > 0 && gap == 0 {
				return 0, 0, fmt.Errorf("adjacent runs %d/%d not merged", i, nRuns)
			}
			start := pos + gap
			if start >= TileCells || length > TileCells-start {
				return 0, 0, fmt.Errorf("run %d/%d past tile end", i, nRuns)
			}
			pos = start + length
			count += length
		}
		return count, off, nil
	}
}

// ExpandContainer decodes one container payload (as yielded by
// WalkContainers) into a tile's bit block — bit i set means tile-local
// cell i — and returns the cell count. The block is OR-merged, so zero
// it first when reusing.
func ExpandContainer(typ byte, pay []byte, w *[TileWords]uint64) (uint64, error) {
	switch typ {
	case ContainerFull:
		for i := range w {
			w[i] = ^uint64(0)
		}
		return TileCells, nil
	case ContainerBitmap:
		if len(pay) < TileWords*8 {
			return 0, fmt.Errorf("binenc: truncated bitmap container")
		}
		var count uint64
		for i := range w {
			w[i] |= binary.LittleEndian.Uint64(pay[i*8:])
			count += uint64(bits.OnesCount64(w[i]))
		}
		return count, nil
	case ContainerArray:
		var count uint64
		cells, read := binary.Uvarint(pay)
		if read <= 0 {
			return 0, fmt.Errorf("binenc: truncated array container count")
		}
		off := read
		prev := uint64(0)
		for i := uint64(0); i < cells; i++ {
			d, read := binary.Uvarint(pay[off:])
			if read <= 0 {
				return 0, fmt.Errorf("binenc: truncated array container cell %d/%d", i, cells)
			}
			off += read
			if i == 0 {
				prev = d
			} else {
				prev += d
			}
			if prev >= TileCells {
				return 0, fmt.Errorf("binenc: array container cell %d past tile end", prev)
			}
			w[prev/64] |= uint64(1) << (prev % 64)
			count++
		}
		return count, nil
	default: // ContainerRuns
		var count uint64
		nRuns, read := binary.Uvarint(pay)
		if read <= 0 {
			return 0, fmt.Errorf("binenc: truncated run container count")
		}
		off := read
		pos := uint64(0)
		for i := uint64(0); i < nRuns; i++ {
			gap, read := binary.Uvarint(pay[off:])
			if read <= 0 {
				return 0, fmt.Errorf("binenc: truncated run gap %d/%d", i, nRuns)
			}
			off += read
			length, read := binary.Uvarint(pay[off:])
			if read <= 0 {
				return 0, fmt.Errorf("binenc: truncated run length %d/%d", i, nRuns)
			}
			off += read
			start := pos + gap
			if start >= TileCells || length > TileCells-start {
				return 0, fmt.Errorf("binenc: run %d/%d past tile end", i, nRuns)
			}
			setLocalRun(w, start, length)
			pos = start + length
			count += length
		}
		return count, nil
	}
}

// ExpandTileSet parses a container-form cell set whose cells all fall in
// tile 0, as AppendTileSet writes it, into w (which it zeroes first), and
// returns the cell count and the bytes consumed. It validates what
// WalkContainers does, and a cell outside tile 0 is an error; a bitmap
// container is copied and counted in one pass.
func ExpandTileSet(src []byte, w *[TileWords]uint64) (count uint64, n int, err error) {
	*w = [TileWords]uint64{}
	total, read := binary.Uvarint(src)
	if read <= 0 {
		return 0, 0, fmt.Errorf("binenc: truncated tile set cell count")
	}
	n = read
	if total == 0 {
		return 0, n, nil
	}
	nTiles, read := binary.Uvarint(src[n:])
	if read <= 0 || nTiles > 1 {
		return 0, 0, fmt.Errorf("binenc: tile set of %d tiles", nTiles)
	}
	n += read
	if nTiles == 0 {
		ok := true
		count, read, err := WalkContainers(src, func(cell uint64) bool {
			if ok = cell < TileCells; ok {
				w[cell/64] |= 1 << (cell % 64)
			}
			return ok
		}, nil)
		if err == nil && !ok {
			err = fmt.Errorf("binenc: tile set cell past tile end")
		}
		return count, read, err
	}
	hdr, read := binary.Uvarint(src[n:])
	if read <= 0 || hdr>>2 != 0 {
		return 0, 0, fmt.Errorf("binenc: tile set header %d is not tile 0", hdr)
	}
	n += read
	typ, pay := byte(hdr&3), src[n:]
	payLen := 0
	if typ == ContainerBitmap {
		if len(pay) < TileWords*8 {
			return 0, 0, fmt.Errorf("binenc: truncated bitmap container")
		}
		for i := range w {
			w[i] = binary.LittleEndian.Uint64(pay[i*8:])
			count += uint64(bits.OnesCount64(w[i]))
		}
		payLen = TileWords * 8
	} else {
		if count, payLen, err = parseContainerPayload(typ, pay); err != nil {
			return 0, 0, fmt.Errorf("binenc: tile set: %w", err)
		}
		_, _ = ExpandContainer(typ, pay[:payLen], w) // validated above
	}
	if count == 0 || count != total {
		return 0, 0, fmt.Errorf("binenc: tile set holds %d cells, declared %d", count, total)
	}
	return count, n + payLen, nil
}

// ArrayCells calls fn with the tile-local offset of every cell of an array
// container payload, in ascending order. The payload must be one
// WalkContainers validated; lookups use it to set an array container's few
// cells without expanding a whole tile block.
func ArrayCells(pay []byte, fn func(off uint64)) {
	cells, off := binary.Uvarint(pay)
	prev := uint64(0)
	for i := uint64(0); i < cells; i++ {
		d, read := binary.Uvarint(pay[off:])
		if read <= 0 {
			return
		}
		off += read
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		fn(prev)
	}
}

// setLocalRun sets [start, start+length) in a tile block word-parallel.
func setLocalRun(w *[TileWords]uint64, start, length uint64) {
	end := start + length // exclusive, <= TileCells
	for wi := start / 64; wi*64 < end; wi++ {
		from := start
		if ws := wi * 64; from < ws {
			from = ws
		}
		to := end
		if we := wi*64 + 64; to > we {
			to = we
		}
		if nbits := to - from; nbits == 64 {
			w[wi] = ^uint64(0)
		} else {
			w[wi] |= (uint64(1)<<nbits - 1) << (from % 64)
		}
	}
}

// DecodeContainersInto streams a container-form cell set as maximal runs
// within each tile, in ascending order, returning the bytes consumed. If
// visit returns false the remaining containers are skipped (but still
// parsed, so the consumed count stays correct).
func DecodeContainersInto(src []byte, visit func(start, length uint64) bool) (int, error) {
	emitting := true
	_, n, err := WalkContainers(src,
		func(cell uint64) bool {
			if emitting {
				emitting = visit(cell, 1)
			}
			return true
		},
		func(base uint64, typ byte, payOff, payLen int) bool {
			if !emitting {
				return true
			}
			if typ == ContainerFull {
				emitting = visit(base, TileCells)
				return true
			}
			var w [TileWords]uint64
			if _, err := ExpandContainer(typ, src[payOff:payOff+payLen], &w); err != nil {
				return true // unreachable: the walk validated the payload
			}
			emitting = emitBlockRuns(base, &w, visit)
			return true
		})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// emitBlockRuns streams the maximal set-bit runs of one tile block.
func emitBlockRuns(base uint64, w *[TileWords]uint64, visit func(start, length uint64) bool) bool {
	var runStart, runLen uint64
	for wi := 0; wi < TileWords; wi++ {
		word := w[wi]
		for word != 0 {
			cell := base + uint64(wi)*64 + uint64(bits.TrailingZeros64(word))
			switch {
			case runLen > 0 && cell == runStart+runLen:
				runLen++
			case runLen > 0:
				if !visit(runStart, runLen) {
					return false
				}
				fallthrough
			default:
				runStart, runLen = cell, 1
			}
			word &= word - 1
		}
	}
	if runLen > 0 {
		return visit(runStart, runLen)
	}
	return true
}
