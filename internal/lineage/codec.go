package lineage

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"subzero/internal/binenc"
)

// Physical key layout inside a store's hashtable:
//
//	'P' + uvarint(pairID)          region-pair record
//	'T' + slot byte + 8-byte tile  the cell entries of one 1024-cell tile
//	                               (One encodings; see appendTileValue)
//
// For backward-optimized stores the only key slot is 0 (output cells); for
// forward-optimized stores slot i holds the cells of input i. A tile is
// binenc.TileCells consecutive cell indices, aligned like the container
// tiles and the bitmap blocks, so tile t holds cells [1024t, 1024t+1024).
// Store metadata (next pair id, statistics, R-trees) is not in the
// hashtable: it is one blob committed atomically beside it
// (kvstore.Store.CommitMeta).
//
// Builds before the tile layout wrote one 'K' + slot + cell key per cell.
// No reader is kept for them: a store holding one is stale (see
// Store.rebuildMeta) and answers every lookup with ErrCorrupt.
const (
	keyPair      = 'P'
	keyTile      = 'T'
	keyStaleCell = 'K'

	tileKeyLen = 10
)

func pairKey(id uint64) []byte {
	buf := make([]byte, 1, 11)
	buf[0] = keyPair
	return binary.AppendUvarint(buf, id)
}

func appendTileKey(buf []byte, slot int, tile uint64) []byte {
	buf = append(buf, keyTile, byte(slot))
	return binary.BigEndian.AppendUint64(buf, tile)
}

// record is a decoded region-pair record. Cell sets stay in their
// compressed container form, so a record held in recCache costs far less
// than per-cell slices and replays into a destination bitmap
// word-parallel. Decoding is what the cache pays for: a FullOne lookup
// that will not cache a record replays it from its bytes instead
// (fullRecordSide + orCellSet), and the two replays set the same cells.
type record struct {
	outs    containerSet
	ins     []containerSet // nil for payload records
	payload []byte         // nil for full records
}

// outSide names a record's output set where a lookup picks the side it
// applies; 0..n-1 name its input sets.
const outSide = -1

// side returns the cell set a lookup applies: outs for outSide, else that
// input set.
func (r *record) side(i int) *containerSet {
	if i == outSide {
		return &r.outs
	}
	return &r.ins[i]
}

// There is one record format: a leading flags byte naming the record kind,
// then cell sets in tiled container form (binenc.AppendCellSetContainers),
// probed in situ. Any other flags byte — 0–3 marked the per-cell and
// run-length layouts earlier builds wrote — is corruption like any other
// undecodable value: the store degrades, the query answers by
// re-execution, and the heal loop rebuilds the store in this format.
const (
	recFullContainers    = 4 // container input cell sets follow
	recPayloadContainers = 5 // container outs + payload blob
)

// encodeRecord serializes a region pair as a pair-record value. Cell
// offsets are delta-coded against their tile base, and each tile
// independently picks the smallest of the array, run, and bitmap
// container forms.
func encodeRecord(rp *RegionPair) []byte {
	var buf []byte
	if rp.IsPayload() {
		buf = append(buf, recPayloadContainers)
		buf = binenc.AppendCellSetContainers(buf, rp.Out)
		buf = binenc.AppendBytes(buf, rp.Payload)
		return buf
	}
	buf = append(buf, recFullContainers)
	buf = binenc.AppendCellSetContainers(buf, rp.Out)
	buf = binary.AppendUvarint(buf, uint64(len(rp.Ins)))
	for _, in := range rp.Ins {
		buf = binenc.AppendCellSetContainers(buf, in)
	}
	return buf
}

// decodeRecord parses a pair-record value.
func decodeRecord(val []byte) (*record, error) {
	if len(val) == 0 {
		return nil, fmt.Errorf("lineage: empty pair record")
	}
	flags, rest := val[0], val[1:]
	if flags != recFullContainers && flags != recPayloadContainers {
		return nil, fmt.Errorf("lineage: unknown pair record flags %d", flags)
	}
	rec := &record{}
	outs, n, err := decodeCellSet(rest)
	if err != nil {
		return nil, fmt.Errorf("lineage: pair record outs: %w", err)
	}
	rec.outs = outs
	rest = rest[n:]
	if flags == recPayloadContainers {
		payload, _, err := binenc.DecodeBytes(rest)
		if err != nil {
			return nil, fmt.Errorf("lineage: pair record payload: %w", err)
		}
		rec.payload = make([]byte, len(payload)) // non-nil even when empty
		copy(rec.payload, payload)
		return rec, nil
	}
	nIns, read := binary.Uvarint(rest)
	if read <= 0 || nIns > 255 {
		return nil, fmt.Errorf("lineage: pair record input count")
	}
	rest = rest[read:]
	rec.ins = make([]containerSet, nIns)
	for i := range rec.ins {
		in, n, err := decodeCellSet(rest)
		if err != nil {
			return nil, fmt.Errorf("lineage: pair record input %d: %w", i, err)
		}
		rec.ins[i] = in
		rest = rest[n:]
	}
	return rec, nil
}

// fullRecordSide validates a pair-record value for a Full store with nIns
// input spaces — the flags byte, every cell set in order, the input count —
// and returns the encoded cell set of one side (see outSide) without
// decoding anything. It accepts exactly the values Store.loadRecord accepts
// for such a store, and orCellSet on the returned bytes sets exactly the
// cells rec.side(side) holds (FuzzReplayRecord). Nothing is returned until
// the whole record has validated, so a corrupt record never half-applies.
func fullRecordSide(val []byte, nIns, side int) ([]byte, error) {
	if len(val) == 0 {
		return nil, fmt.Errorf("lineage: empty pair record")
	}
	switch val[0] {
	case recFullContainers:
	case recPayloadContainers:
		return nil, fmt.Errorf("lineage: full store holds a payload record")
	default:
		return nil, fmt.Errorf("lineage: unknown pair record flags %d", val[0])
	}
	rest := val[1:]
	_, n, err := binenc.WalkContainers(rest, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("lineage: pair record outs: %w", err)
	}
	set := rest[:n]
	rest = rest[n:]
	got, read := binary.Uvarint(rest)
	if read <= 0 || got > 255 {
		return nil, fmt.Errorf("lineage: pair record input count")
	}
	if got != uint64(nIns) {
		return nil, fmt.Errorf("lineage: pair record carries %d input sets, store has %d input spaces", got, nIns)
	}
	rest = rest[read:]
	for i := 0; i < nIns; i++ {
		if _, n, err = binenc.WalkContainers(rest, nil, nil); err != nil {
			return nil, fmt.Errorf("lineage: pair record input %d: %w", i, err)
		}
		if i == side {
			set = rest[:n]
		}
		rest = rest[n:]
	}
	return set, nil
}

// appendIDEntry appends the pair-id list stored in a One-encoding cell
// entry (usually a single id).
func appendIDEntry(buf []byte, ids []uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, id)
	}
	return buf
}

// appendIDList parses a cell entry's pair-id list, appending to dst so
// the lookup hot path can reuse one scratch slice across probes.
func appendIDList(dst []uint64, val []byte) ([]uint64, error) {
	n, read := binary.Uvarint(val)
	if read <= 0 || n > uint64(len(val)) {
		return dst, fmt.Errorf("lineage: cell entry id count")
	}
	off := read
	for i := uint64(0); i < n; i++ {
		id, read := binary.Uvarint(val[off:])
		if read <= 0 {
			return dst, fmt.Errorf("lineage: cell entry id %d truncated", i)
		}
		dst = append(dst, id)
		off += read
	}
	return dst, nil
}

// appendPayloadEntry appends the payload list stored in a PayOne cell
// entry (paper Figure 4.4 stores "a duplicate of the payload in each hash
// value"; a list handles the rare case of one output cell appearing in
// multiple payload pairs).
func appendPayloadEntry(buf []byte, payloads [][]byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(payloads)))
	for _, p := range payloads {
		buf = binenc.AppendBytes(buf, p)
	}
	return buf
}

// A tile value holds the cell entries of one (slot, tile) in three parts:
//
//	cell set   the tile-local offsets (cell mod 1024) of the cells holding
//	           an entry, as one container-form cell set laid out for
//	           expansion (binenc.AppendTileSet)
//	starts     a width byte w (1–8), then one w-byte little-endian start
//	           offset per cell into the entry region
//	entries    the cells' id lists (appendIDEntry) or payload lists
//	           (appendPayloadEntry), in cell order
//
// Entries are self-delimiting, so a start offset is all a reader needs, and
// a cell whose entry equals the previous cell's shares its bytes: a region
// pair's consecutive cells store its id or payload once per run, not once
// per cell. A lookup expands the cell set into one 16-word block (parse),
// ANDs it with the query's block for the tile, and ranks each hit by
// popcount to find its start offset, so a hit costs O(1) however full its
// tile is.

// appendTileValue appends one tile value: locals are the tile's sorted
// tile-local cell offsets, and starts[i] is where the entry of locals[i]
// starts in entries.
func appendTileValue(dst []byte, locals []uint64, starts []int, entries []byte) []byte {
	dst = binenc.AppendTileSet(dst, locals)
	w := 1
	for w < 8 && len(entries) >= 1<<(8*w) {
		w++
	}
	dst = append(dst, byte(w))
	for _, s := range starts {
		for k := 0; k < w; k++ {
			dst = append(dst, byte(s>>(8*k)))
		}
	}
	return append(dst, entries...)
}

// cellTile is a parsed tile value: its cells as one bit block, and the
// start offsets and entry region still in the value's bytes (which it
// aliases).
type cellTile struct {
	blk     [binenc.TileWords]uint64
	n       int
	width   int
	starts  []byte
	entries []byte
}

// parse checks a tile value's framing and expands its cell set into t.blk.
// The work is bounded by the container (AppendTileSet) and does not grow
// with the tile's entries; each entry's start is checked when it is read,
// and its list when it is decoded.
func (t *cellTile) parse(val []byte) error {
	total, n, err := binenc.ExpandTileSet(val, &t.blk)
	switch {
	case err != nil:
		return fmt.Errorf("lineage: tile cell set: %w", err)
	case total == 0 || n >= len(val):
		return fmt.Errorf("lineage: tile value of %d cells without start offsets", total)
	}
	w, rest := int(val[n]), val[n+1:]
	if w < 1 || w > 8 || uint64(len(rest)) < total*uint64(w) {
		return fmt.Errorf("lineage: tile start offsets of width %d for %d cells in %d bytes", w, total, len(rest))
	}
	t.n, t.width = int(total), w
	t.starts, t.entries = rest[:t.n*w], rest[t.n*w:]
	if first, last := t.start(0), t.start(t.n-1); first != 0 || last >= uint64(len(t.entries)) {
		return fmt.Errorf("lineage: tile entries start at %d..%d of a %d-byte region", first, last, len(t.entries))
	}
	return nil
}

// start returns the start offset of the i'th cell's entry.
func (t *cellTile) start(i int) uint64 {
	b := t.starts[i*t.width : (i+1)*t.width]
	switch len(b) {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	}
	var v uint64
	for k := len(b) - 1; k >= 0; k-- {
		v = v<<8 | uint64(b[k])
	}
	return v
}

// entry returns the entry region from the i'th cell's entry on; the entry's
// decoder (appendIDList, forEachPayload) reads exactly one entry from it.
func (t *cellTile) entry(i int) ([]byte, error) {
	s := t.start(i)
	if s >= uint64(len(t.entries)) {
		return nil, fmt.Errorf("lineage: tile entry %d starts at %d of a %d-byte region", i, s, len(t.entries))
	}
	return t.entries[s:], nil
}

// entrySpan returns exactly the bytes of the i'th cell's entry, given the
// start of the next distinct entry after it (or the region's length): a
// flush's merge copies kept entries by these bounds (appendNextStarts).
func (t *cellTile) entrySpan(i int, next uint64) ([]byte, error) {
	s := t.start(i)
	if s >= next || next > uint64(len(t.entries)) {
		return nil, fmt.Errorf("lineage: tile entry %d spans [%d, %d) of a %d-byte region", i, s, next, len(t.entries))
	}
	return t.entries[s:next], nil
}

// appendNextStarts appends, for each cell, the start of the next distinct
// entry after its own, or the region's length after the last: the end of
// the cell's entry bytes in a well-formed tile.
func (t *cellTile) appendNextStarts(dst []uint64) []uint64 {
	n := len(dst)
	dst = slices.Grow(dst, t.n)[:n+t.n]
	next := uint64(len(t.entries))
	for i := t.n - 1; i >= 0; i-- {
		dst[n+i] = next
		if s := t.start(i); i > 0 && t.start(i-1) != s {
			next = s
		}
	}
	return dst
}

// appendLocals appends the tile-local offsets of the tile's cells, in
// order.
func (t *cellTile) appendLocals(dst []uint64) []uint64 {
	for w, word := range t.blk {
		for word != 0 {
			dst = append(dst, uint64(w*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// forEachPayload streams the payloads of a PayOne cell entry into fn
// without copying; each payload aliases val and is only valid for the
// duration of the call. A non-nil error from fn stops the scan and is
// returned.
func forEachPayload(val []byte, fn func(p []byte) error) error {
	n, read := binary.Uvarint(val)
	if read <= 0 || n > uint64(len(val))+1 {
		return fmt.Errorf("lineage: payload list count")
	}
	off := read
	for i := uint64(0); i < n; i++ {
		p, consumed, err := binenc.DecodeBytes(val[off:])
		if err != nil {
			return fmt.Errorf("lineage: payload %d: %w", i, err)
		}
		if err := fn(p); err != nil {
			return err
		}
		off += consumed
	}
	return nil
}
