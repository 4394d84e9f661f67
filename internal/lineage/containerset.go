package lineage

import (
	"encoding/binary"
	"math/bits"
	"sort"
	"sync/atomic"

	"subzero/internal/binenc"
	"subzero/internal/bitmap"
)

// The container tile width and the bitmap block width must agree for the
// word-parallel probe path to line up; this fails to compile if they
// drift apart.
var _ [binenc.TileWords - bitmap.BlockWords]struct{}
var _ [bitmap.BlockWords - binenc.TileWords]struct{}

// containerSet is a decoded record cell set, answered directly on its
// compressed form: word-parallel application to destination bitmaps
// (addTo), word-parallel probing against query bitmaps (intersects), point
// membership, and ordered iteration. A set holds one of the codec's two
// layouts. Tiled sets keep one copy of the encoded container bytes and an
// index of (tile base, type, payload) built in a single validating pass at
// decode time — no per-cell materialization. Sparse-direct sets (at most
// binenc.SparseDirectMax cells, the singleton per-cell pairs that dominate
// many workloads) carry no containers and are held as the sorted cells
// themselves.
//
// Everything works in situ. Applying a set (addTo, forEach) never
// promotes: full tiles are runs, array containers set their few cells
// directly, and run and bitmap containers expand into a block on the
// stack — the same replay orCellSet does on a record's raw bytes. Only the
// probes (intersects, contains) promote a non-full tile, once, to a
// 16-word bit block shared by later probes, because they test the tile
// against a query many times. Promotion is per tile and race-safe: records
// live in the recCache and are probed by concurrent lookups, so blocks
// install via CAS on an atomic pointer (losing a benign race just discards
// a duplicate block).
type containerSet struct {
	total  uint64
	sparse []uint64 // sparse-direct form
	tiles  []ctile  // tiled form
}

// ctile is one indexed container: the tile's first cell index, its
// container type, its payload bytes (aliasing the set's private copy of
// the encoding), and the bit block it promotes to on first probe.
type ctile struct {
	base uint64
	typ  byte
	pay  []byte
	blk  atomic.Pointer[[binenc.TileWords]uint64]
}

// decodeCellSet parses one container-form cell set into its probe form,
// returning the bytes consumed.
func decodeCellSet(src []byte) (containerSet, int, error) {
	type tileMeta struct {
		base           uint64
		typ            byte
		payOff, payLen int
	}
	// The walk admits at most SparseDirectMax sparse cells, so they gather
	// on the stack and the set pays one exactly-sized allocation.
	var direct [binenc.SparseDirectMax]uint64
	nDirect := 0
	var metas []tileMeta
	total, n, err := binenc.WalkContainers(src,
		func(cell uint64) bool {
			direct[nDirect] = cell
			nDirect++
			return true
		},
		func(base uint64, typ byte, payOff, payLen int) bool {
			metas = append(metas, tileMeta{base, typ, payOff, payLen})
			return true
		})
	if err != nil {
		return containerSet{}, 0, err
	}
	cs := containerSet{total: total}
	if nDirect > 0 {
		cs.sparse = append([]uint64(nil), direct[:nDirect]...)
	}
	if metas != nil {
		data := make([]byte, n)
		copy(data, src[:n])
		cs.tiles = make([]ctile, len(metas))
		for i, m := range metas {
			t := &cs.tiles[i]
			t.base, t.typ, t.pay = m.base, m.typ, data[m.payOff:m.payOff+m.payLen]
		}
	}
	return cs, n, nil
}

// block returns the tile promoted to its bit block, promoting on first use.
// Only the probes (intersects, contains) call it.
func (t *ctile) block() *[binenc.TileWords]uint64 {
	if blk := t.blk.Load(); blk != nil {
		return blk
	}
	blk := new([binenc.TileWords]uint64)
	// The payload was validated by WalkContainers at decode time, so
	// expansion cannot fail; a zero block is the safe result if it ever
	// did.
	_, _ = binenc.ExpandContainer(t.typ, t.pay, blk)
	if !t.blk.CompareAndSwap(nil, blk) {
		blk = t.blk.Load()
	}
	return blk
}

// addTo ORs the set's cells into dst without promoting any tile.
func (cs *containerSet) addTo(dst *bitmap.Bitmap) {
	dst.SetCells(cs.sparse)
	for i := range cs.tiles {
		t := &cs.tiles[i]
		orContainer(dst, t.base, t.typ, t.pay)
	}
}

// orCellSet ORs an encoded container-form cell set into dst straight from
// its bytes, which the caller has already validated (fullRecordSide).
func orCellSet(dst *bitmap.Bitmap, set []byte) {
	_, _, _ = binenc.WalkContainers(set,
		func(cell uint64) bool {
			dst.Set(cell)
			return true
		},
		func(base uint64, typ byte, payOff, payLen int) bool {
			orContainer(dst, base, typ, set[payOff:payOff+payLen])
			return true
		})
}

// orContainer ORs one validated container into dst: a full tile is a run,
// an array container sets its few cells directly, and run and bitmap
// containers expand into a block on the stack.
func orContainer(dst *bitmap.Bitmap, base uint64, typ byte, pay []byte) {
	switch typ {
	case binenc.ContainerFull:
		dst.SetRun(base, binenc.TileCells)
	case binenc.ContainerArray:
		binenc.ArrayCells(pay, func(off uint64) { dst.Set(base + off) })
	default:
		var blk [binenc.TileWords]uint64
		_, _ = binenc.ExpandContainer(typ, pay, &blk)
		dst.OrBlock(base, &blk)
	}
}

// intersects reports whether any cell of the set is set in q.
func (cs *containerSet) intersects(q *bitmap.Bitmap) bool {
	for _, c := range cs.sparse {
		if q.Get(c) {
			return true
		}
	}
	for i := range cs.tiles {
		t := &cs.tiles[i]
		if t.typ == binenc.ContainerFull {
			if q.AnyInRange(t.base, binenc.TileCells) {
				return true
			}
			continue
		}
		if q.AnyBlock(t.base, t.block()) {
			return true
		}
	}
	return false
}

// contains reports whether the set holds cell: a scan of the few sparse
// cells, or a binary search over the tile bases. Bitmap containers are
// tested straight off their payload bytes; array/run containers through
// their promoted block.
func (cs *containerSet) contains(cell uint64) bool {
	for _, c := range cs.sparse {
		if c == cell {
			return true
		}
	}
	i := sort.Search(len(cs.tiles), func(i int) bool { return cs.tiles[i].base > cell })
	if i == 0 {
		return false
	}
	t := &cs.tiles[i-1]
	off := cell - t.base
	if off >= binenc.TileCells {
		return false
	}
	switch t.typ {
	case binenc.ContainerFull:
		return true
	case binenc.ContainerBitmap:
		word := binary.LittleEndian.Uint64(t.pay[(off/64)*8:])
		return word&(uint64(1)<<(off%64)) != 0
	}
	return t.block()[off/64]&(uint64(1)<<(off%64)) != 0
}

// forEach calls fn with every cell in ascending order until fn returns
// false.
func (cs *containerSet) forEach(fn func(cell uint64) bool) {
	for _, c := range cs.sparse {
		if !fn(c) {
			return
		}
	}
	for i := range cs.tiles {
		t := &cs.tiles[i]
		if t.typ == binenc.ContainerFull {
			for c := t.base; c < t.base+binenc.TileCells; c++ {
				if !fn(c) {
					return
				}
			}
			continue
		}
		var blk [binenc.TileWords]uint64
		_, _ = binenc.ExpandContainer(t.typ, t.pay, &blk)
		for wi := range blk {
			word := blk[wi]
			base := t.base + uint64(wi)*64
			for word != 0 {
				if !fn(base + uint64(bits.TrailingZeros64(word))) {
					return
				}
				word &= word - 1
			}
		}
	}
}

// cells materializes the set as a sorted index slice (tests and
// diagnostics only — lookups stay on containers).
func (cs *containerSet) cells(dst []uint64) []uint64 {
	cs.forEach(func(c uint64) bool {
		dst = append(dst, c)
		return true
	})
	return dst
}

// size returns the total cell count, carried by the encoding.
func (cs *containerSet) size() uint64 { return cs.total }
