package lineage

import (
	"encoding/binary"
	"fmt"

	"subzero/internal/binenc"
)

// Physical key layout inside a store's hashtable:
//
//	'P' + uvarint(pairID)          region-pair record
//	'K' + slot byte + 8-byte cell  per-cell entry (One encodings)
//
// For backward-optimized stores the only key slot is 0 (output cells); for
// forward-optimized stores slot i holds the cells of input i. Store
// metadata (next pair id, statistics, R-trees) is not in the hashtable: it
// is one blob committed atomically beside it (kvstore.Store.CommitMeta).
const (
	keyPair = 'P'
	keyCell = 'K'
)

func pairKey(id uint64) []byte {
	buf := make([]byte, 1, 11)
	buf[0] = keyPair
	return binary.AppendUvarint(buf, id)
}

func cellKey(slot int, cell uint64) []byte {
	return appendCellKey(make([]byte, 0, 10), slot, cell)
}

func appendCellKey(buf []byte, slot int, cell uint64) []byte {
	buf = append(buf, keyCell, byte(slot))
	return binary.BigEndian.AppendUint64(buf, cell)
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
