// Package binenc implements the compact binary encodings SubZero uses to
// serialize lineage data: the tiled container cell-set codec, rectangle
// codecs, and length-prefixed framing. The paper (§VI-B) bit-packs each
// coordinate into a single integer when the array is small enough; we
// always address cells by their uint64 row-major linear index (see
// internal/grid), so the codecs here operate on sorted []uint64 index sets.
package binenc

import (
	"encoding/binary"
	"fmt"

	"subzero/internal/grid"
)

// AppendRect appends a rectangle as rank followed by varint Lo/Hi bounds
// (Hi stored as a delta from Lo, which is always >= 0 for valid rects).
func AppendRect(dst []byte, r grid.Rect) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.Rank()))
	for d := range r.Lo {
		dst = binary.AppendUvarint(dst, uint64(r.Lo[d]))
		dst = binary.AppendUvarint(dst, uint64(r.Hi[d]-r.Lo[d]))
	}
	return dst
}

// DecodeRect decodes a rectangle produced by AppendRect, returning the rect
// and the number of bytes consumed.
func DecodeRect(src []byte) (grid.Rect, int, error) {
	rank, read := binary.Uvarint(src)
	if read <= 0 || rank == 0 || rank > 64 {
		return grid.Rect{}, 0, fmt.Errorf("binenc: bad rect rank")
	}
	off := read
	r := grid.Rect{Lo: make(grid.Coord, rank), Hi: make(grid.Coord, rank)}
	for d := 0; d < int(rank); d++ {
		lo, read := binary.Uvarint(src[off:])
		if read <= 0 {
			return grid.Rect{}, 0, fmt.Errorf("binenc: truncated rect lo[%d]", d)
		}
		off += read
		ext, read := binary.Uvarint(src[off:])
		if read <= 0 {
			return grid.Rect{}, 0, fmt.Errorf("binenc: truncated rect hi[%d]", d)
		}
		off += read
		r.Lo[d] = int(lo)
		r.Hi[d] = int(lo + ext)
	}
	return r, off, nil
}

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// DecodeBytes decodes a length-prefixed byte string, returning a slice
// aliasing src and the number of bytes consumed.
func DecodeBytes(src []byte) ([]byte, int, error) {
	n, read := binary.Uvarint(src)
	if read <= 0 {
		return nil, 0, fmt.Errorf("binenc: truncated byte-string length")
	}
	if uint64(len(src)-read) < n {
		return nil, 0, fmt.Errorf("binenc: byte string of %d bytes exceeds buffer", n)
	}
	return src[read : read+int(n)], read + int(n), nil
}
