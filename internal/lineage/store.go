package lineage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"subzero/internal/binenc"
	"subzero/internal/bitmap"
	"subzero/internal/fault"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
	"subzero/internal/rtree"
)

// ErrAborted is returned by store lookups cancelled by the query-time
// optimizer when materialized-lineage access exceeds its budget and the
// executor falls back to re-running the operator (paper §VII-A).
var ErrAborted = errors.New("lineage: lookup aborted by query-time optimizer")

// ErrCorrupt marks a CRC/decode failure discovered at lookup time: a
// record the hashtable returned but the codec cannot make sense of, or a
// per-cell entry referencing a pair id the store does not hold. Lookups
// returning it have already marked the store degraded; the query executor
// answers via operator re-execution (the same fallback as ErrAborted) and
// the system schedules a background rebuild. Lineage is a recoverable
// cache — corruption degrades one store, never the daemon.
var ErrCorrupt = errors.New("lineage: store corrupt")

// fpDecode injects a decode failure at the record-lookup site, simulating
// the corruption a bit-flip or software bug would produce past the kv
// layer's CRC.
var fpDecode = fault.Register("lineage/lookup/decode")

// StoreStats aggregates what the statistics collector records about one
// store's write path; the optimizer's cost model is calibrated from these.
// The operator's thread pays both durations: WriteTime is the bulk encodes
// of its batches (Builder.WritePairs), FlushTime the builder's one Flush
// (the record blocks, tiles and indexes it writes and the meta commit).
// The meta blob is committed inside the Flush it would time, so a reopened
// store reports no FlushTime.
type StoreStats struct {
	Pairs        int
	OutCells     int64
	InCells      int64
	PayloadBytes int64
	WriteTime    time.Duration // Builder.WritePairs: encode and commit of each batch
	FlushTime    time.Duration // Builder.Flush
}

// Store holds the materialized region lineage of a single operator
// instance under a single strategy — one "operator specific datastore" of
// the paper's architecture — and serves backward/forward lookups over the
// region pairs a Builder encoded into its kvstore hashtable. A Store comes
// from Builder.Flush, or from OpenStore over a hashtable a Builder flushed.
//
// A Store is read-only. Nothing a lookup reads changes once it exists, so
// lookups (Backward, Forward, ContainsOut) take no lock but recMu around
// the record cache, and the accessors none; only the record cache and the
// degraded and healing flags change. Lock order is recMu → kvstore. The
// callbacks a lookup runs (abort hooks, payload mapping functions) must
// not touch the store.
type Store struct {
	strat    Strategy
	outSpace *grid.Space
	inSpaces []*grid.Space
	kv       kvstore.Store

	// trees index the key side of Many encodings: slot 0 holds output
	// bounding boxes for backward-optimized stores; slot i holds input-i
	// bounding boxes for forward-optimized stores.
	trees []*rtree.Tree

	// rebuiltIdx is the encoded size of the trees rebuildMeta built for a
	// store reopened without a usable meta blob: no blob holds them, so the
	// hashtable's size leaves them out.
	rebuiltIdx int64

	// nextPair is the next record id: the store's records have ids below it.
	nextPair uint64

	// stale is set at open when the hashtable holds keys of an earlier
	// layout; every lookup then reports errStaleLayout.
	stale bool

	// recMu guards recCache, which concurrent lookups fill. The cache
	// admits decoded records while it has room (recCacheLimit) and is never
	// wiped, so a working set larger than the limit keeps the records it
	// admitted first and replays the rest from their bytes. recMu is never
	// taken inside a kvstore callback.
	recMu    sync.Mutex
	recCache map[uint64]*record

	// stats is what the builder counted, or what a reopen restored.
	stats StoreStats

	// degraded latches when a lookup hits corruption (see ErrCorrupt);
	// healing claims the store for a single background rebuild.
	degraded atomic.Bool
	healing  atomic.Bool
}

const (
	recCacheLimit      = 1 << 13
	abortCheckInterval = 64
)

// newStore validates a strategy and its spaces and returns a store over kv
// with empty indexes, which NewBuilder writes and OpenStore loads. The
// strategy must be one that materializes pairs (Full, Pay, or Comp).
func newStore(kv kvstore.Store, strat Strategy, outSpace *grid.Space, inSpaces []*grid.Space) (*Store, error) {
	if err := strat.Validate(); err != nil {
		return nil, err
	}
	if !strat.StoresPairs() {
		return nil, fmt.Errorf("lineage: strategy %s does not materialize pairs", strat)
	}
	if len(inSpaces) == 0 || len(inSpaces) > 255 {
		return nil, fmt.Errorf("lineage: store needs 1..255 input spaces, got %d", len(inSpaces))
	}
	s := &Store{
		strat:    strat,
		outSpace: outSpace,
		inSpaces: inSpaces,
		kv:       kv,
		recCache: make(map[uint64]*record),
	}
	if strat.Enc == Many {
		s.trees = make([]*rtree.Tree, s.slots())
		for i := range s.trees {
			s.trees[i] = rtree.New(s.slotSpace(i).Rank())
		}
	}
	return s, nil
}

// OpenStore reopens the store a Builder flushed into kv. It restores the
// pair counter, stats and spatial indexes from the meta blob, or rebuilds
// what it can from the records when the blob is missing or unusable; a
// hashtable holding neither is a store with no pairs.
func OpenStore(kv kvstore.Store, strat Strategy, outSpace *grid.Space, inSpaces []*grid.Space) (*Store, error) {
	s, err := newStore(kv, strat, outSpace, inSpaces)
	if err != nil {
		return nil, err
	}
	if err := s.loadMeta(); err != nil {
		return nil, err
	}
	return s, nil
}

// slots returns how many key-side slots the store's encoding indexes: one
// per input for a forward-optimized store, else one.
func (s *Store) slots() int {
	if s.strat.Orient == ForwardOpt {
		return len(s.inSpaces)
	}
	return 1
}

// slotSpace returns the space of the key side of the given slot.
func (s *Store) slotSpace(slot int) *grid.Space {
	if s.strat.Orient == ForwardOpt {
		return s.inSpaces[slot]
	}
	return s.outSpace
}

// loadMeta restores the pair counter, stats, and spatial indexes from the
// atomically committed meta blob. If no usable blob exists but the
// hashtable holds records — a crash threw away the sidecar, or it was
// corrupted — the store rebuilds what it can from the records themselves
// rather than half-loading.
func (s *Store) loadMeta() error {
	blob, ok, err := s.kv.LoadMeta()
	if err != nil {
		return err
	}
	if ok && s.decodeMetaBlob(blob) == nil {
		return nil
	}
	if s.kv.Len() > 0 {
		return s.rebuildMeta()
	}
	return nil
}

// metaBlobVersion frames the single metadata blob committed through
// kvstore.Store.CommitMeta: version byte, pair counter, stats, and one
// serialized R-tree per slot, so a flush is all-or-nothing on disk.
// Version 3 marks stores whose pair records are kept in blocks; version 4
// drops two write statistics of a removed asynchronous write path. A blob
// of any other version is not loaded: the store goes through rebuildMeta,
// whose scan rebuilds it from the records, or finds the keys of an earlier
// layout.
const metaBlobVersion = 4

func (s *Store) encodeMetaBlob() []byte {
	buf := []byte{metaBlobVersion}
	buf = binary.AppendUvarint(buf, s.nextPair)
	stats := s.encodeStats()
	buf = binary.AppendUvarint(buf, uint64(len(stats)))
	buf = append(buf, stats...)
	buf = binary.AppendUvarint(buf, uint64(len(s.trees)))
	for _, tr := range s.trees {
		tv := tr.Encode()
		buf = binary.AppendUvarint(buf, uint64(len(tv)))
		buf = append(buf, tv...)
	}
	return buf
}

func (s *Store) decodeMetaBlob(blob []byte) error {
	if len(blob) == 0 || blob[0] != metaBlobVersion {
		return fmt.Errorf("lineage: unknown meta blob version")
	}
	rest := blob[1:]
	next, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("lineage: meta blob pair counter")
	}
	rest = rest[n:]
	slen, n := binary.Uvarint(rest)
	if n <= 0 || slen > uint64(len(rest)-n) {
		return fmt.Errorf("lineage: meta blob stats")
	}
	rest = rest[n:]
	statsBlob := rest[:slen]
	rest = rest[slen:]
	nTrees, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("lineage: meta blob tree count")
	}
	rest = rest[n:]
	trees := make([]*rtree.Tree, 0, nTrees)
	for i := uint64(0); i < nTrees; i++ {
		tlen, n := binary.Uvarint(rest)
		if n <= 0 || tlen > uint64(len(rest)-n) {
			return fmt.Errorf("lineage: meta blob tree %d", i)
		}
		rest = rest[n:]
		tr, err := rtree.Decode(rest[:tlen])
		if err != nil {
			return fmt.Errorf("lineage: meta blob tree %d: %w", i, err)
		}
		trees = append(trees, tr)
		rest = rest[tlen:]
	}
	s.nextPair = next
	s.decodeStats(statsBlob)
	for i := range s.trees {
		if i < len(trees) {
			s.trees[i] = trees[i]
		}
	}
	return nil
}

// rebuildMeta reconstructs the pair counter, the volume statistics and (for
// Many encodings) the spatial indexes by scanning the surviving pair
// records — the recovery path for a store whose meta was lost to a crash or
// corruption. Lineage is a recoverable cache, so best effort is enough:
// timings are gone, but every surviving pair stays queryable and counted.
// Payload One stores keep no records, so their statistics stay empty.
//
// A store holding a key that is neither a block key nor a tile key holds
// keys of an earlier layout (per-pair 'P' records, per-cell 'K' entries)
// that no lookup reads, so it would answer from a part of its lineage. It
// is marked degraded instead: every lookup reports ErrCorrupt
// (errStaleLayout), so the query executor re-executes while the heal loop
// rebuilds the store in this layout into a fresh hashtable.
func (s *Store) rebuildMeta() error {
	boxes := make([]slotBoxes, len(s.trees))
	var maxID uint64
	var any bool
	var blk recordBlock
	var scanErr error
	err := s.kv.Scan(func(key, val []byte) bool {
		if len(key) == tileKeyLen && key[0] == keyTile {
			return true
		}
		b, n := uint64(0), 0
		if len(key) > 1 && key[0] == keyBlock {
			b, n = binary.Uvarint(key[1:])
		}
		if n <= 0 || 1+n != len(key) {
			s.stale = true
			return false
		}
		if err := blk.parse(val); err != nil {
			scanErr = s.corruptf(err)
			return false
		}
		for i := 0; i < blk.n; i++ {
			val := blk.record(i)
			if val == nil {
				continue
			}
			rec, err := s.loadRecord(val)
			if err != nil {
				scanErr = err
				return false
			}
			id := b*blockIDs + uint64(i)
			any, maxID = true, max(maxID, id)
			s.countRecord(rec)
			if s.strat.Enc == Many {
				if s.strat.Orient == BackwardOpt {
					boxes[0].add(s.outSpace, rec.outs.cells(nil), id)
				} else {
					for j := range rec.ins {
						boxes[j].add(s.inSpaces[j], rec.ins[j].cells(nil), id)
					}
				}
			}
		}
		return true
	})
	switch {
	case err != nil:
		return err
	case scanErr != nil:
		return scanErr
	case s.stale:
		s.degraded.Store(true)
		return nil
	case !any:
		return nil
	}
	s.nextPair = maxID + 1
	// The scan visits blocks in log order, which is id order, so the
	// rebuilt trees are the ones Flush built.
	s.buildTrees(boxes)
	for _, tr := range s.trees {
		s.rebuiltIdx += int64(tr.EncodedLen())
	}
	return nil
}

// countRecord adds one surviving record to the volume statistics.
func (s *Store) countRecord(rec *record) {
	s.stats.Pairs++
	s.stats.OutCells += int64(rec.outs.size())
	for i := range rec.ins {
		s.stats.InCells += int64(rec.ins[i].size())
	}
	s.stats.PayloadBytes += int64(len(rec.payload))
}

// Strategy returns the store's strategy.
func (s *Store) Strategy() Strategy { return s.strat }

// Degraded reports whether a lookup has hit corruption in this store.
// A degraded store still answers queries — the executor falls back to
// operator re-execution — until a background rebuild replaces it.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// BeginHeal claims the store for one background rebuild; the second and
// later claimants get false, so concurrent corrupt lookups schedule a
// single rebuild. EndHeal releases the claim.
func (s *Store) BeginHeal() bool { return s.healing.CompareAndSwap(false, true) }

// EndHeal releases the rebuild claim taken by BeginHeal.
func (s *Store) EndHeal() { s.healing.Store(false) }

// Healing reports whether a background rebuild currently owns the store.
func (s *Store) Healing() bool { return s.healing.Load() }

// errStaleLayout is what a stale store (see rebuildMeta) reports.
var errStaleLayout = errors.New("lineage: store holds keys of an earlier layout")

// readable reports why the store answers no lookups, if it does not.
func (s *Store) readable() error {
	if s.stale {
		return s.corruptf(errStaleLayout)
	}
	return nil
}

// corruptf marks the store degraded and wraps err so it matches both
// ErrCorrupt and the original cause via errors.Is.
func (s *Store) corruptf(err error) error {
	s.degraded.Store(true)
	return fmt.Errorf("%w: %w", ErrCorrupt, err)
}

// Stats returns the write statistics.
func (s *Store) Stats() StoreStats { return s.stats }

// NumPairs returns the number of region pairs written.
func (s *Store) NumPairs() int { return s.stats.Pairs }

// storesRecords reports whether the encoding writes per-pair records (and
// therefore needs pair ids). PayOne duplicates payloads into cell entries
// instead.
func (s *Store) storesRecords() bool {
	return !(s.strat.Enc == One && (s.strat.Mode == Pay || s.strat.Mode == Comp))
}

func pairKind(payload bool) string {
	if payload {
		return "payload"
	}
	return "full"
}

// slotBoxes is one slot's index items awaiting their bulk load: item i's
// bounding box is boxes[i*w:(i+1)*w] with w = 2·rank, its low corner then
// its high corner, and its pair id is ids[i].
type slotBoxes struct {
	boxes []int
	ids   []uint64
}

// add appends the bounding box of cells under id; an empty cell set has
// none.
func (b *slotBoxes) add(sp *grid.Space, cells []uint64, id uint64) {
	var ok bool
	if b.boxes, ok = grid.AppendBoundingBox(b.boxes, sp, cells); ok {
		b.ids = append(b.ids, id)
	}
}

// buildTrees bulk-loads every slot's tree from its boxes, in the order they
// were added. That is id order both for a Builder and for rebuildMeta's
// log-order scan, since a builder writes its blocks in id order, so a
// rebuilt tree is the one Flush built.
func (s *Store) buildTrees(boxes []slotBoxes) {
	for i := range s.trees {
		s.trees[i] = rtree.BulkLoadBoxes(s.slotSpace(i).Rank(), boxes[i].boxes, boxes[i].ids)
	}
}

// encodeStats serializes the write statistics for the meta blob.
func (s *Store) encodeStats() []byte {
	st := s.stats
	buf := binary.AppendUvarint(nil, uint64(st.Pairs))
	buf = binary.AppendUvarint(buf, uint64(st.OutCells))
	buf = binary.AppendUvarint(buf, uint64(st.InCells))
	buf = binary.AppendUvarint(buf, uint64(st.PayloadBytes))
	// Durations are fixed-width: a varint here would make the record's
	// size — and thus SizeBytes — depend on wall-clock timing, breaking
	// the determinism the benchmarks and their tests rely on.
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.WriteTime))
	return binary.LittleEndian.AppendUint64(buf, uint64(st.FlushTime))
}

func (s *Store) decodeStats(val []byte) {
	vals := make([]uint64, 0, 4)
	off := 0
	for i := 0; i < 4 && off < len(val); i++ {
		v, n := binary.Uvarint(val[off:])
		if n <= 0 {
			return
		}
		vals = append(vals, v)
		off += n
	}
	if len(vals) != 4 || len(val)-off != 8+8 {
		return
	}
	s.stats = StoreStats{
		Pairs:        int(vals[0]),
		OutCells:     int64(vals[1]),
		InCells:      int64(vals[2]),
		PayloadBytes: int64(vals[3]),
		WriteTime:    time.Duration(binary.LittleEndian.Uint64(val[off:])),
		FlushTime:    time.Duration(binary.LittleEndian.Uint64(val[off+8:])),
	}
}

// LogicalBytes returns the uncompressed footprint of the lineage this
// store holds — 8 bytes per stored out/in cell index plus the raw
// payload bytes — the denominator of the store's compression ratio
// (SizeBytes / LogicalBytes). It is derived from the accumulated volume
// stats, so it survives reopen like the rest of StoreStats.
func (s *Store) LogicalBytes() int64 {
	return (s.stats.OutCells+s.stats.InCells)*8 + s.stats.PayloadBytes
}

// SizeBytes returns the storage charged to this store: the hashtable size,
// whose meta blob holds the encoded indexes, plus the indexes of a store
// rebuilt without one.
func (s *Store) SizeBytes() int64 {
	return s.kv.SizeBytes() + s.rebuiltIdx
}

// admitLocked caches a decoded record if the cache has room; a full cache
// is left as it is. The caller holds recMu.
func (s *Store) admitLocked(id uint64, rec *record) {
	if len(s.recCache) < recCacheLimit {
		s.recCache[id] = rec
	}
}

// danglingf reports a cell entry or index item that references a record
// the hashtable does not hold: the store's invariants are broken, not the
// query.
func (s *Store) danglingf(id uint64) error {
	return s.corruptf(fmt.Errorf("lineage: dangling pair id %d", id))
}

// replayRecord is loadRecord's in-place twin for Full stores: it validates
// a pair-record value whole (fullRecordSide) and only then ORs one side's
// cells into dst, decoding nothing. A value loadRecord would reject is
// corruption here too, and leaves dst untouched.
func (s *Store) replayRecord(val []byte, side int, dst *bitmap.Bitmap) error {
	set, err := fullRecordSide(val, len(s.inSpaces), side)
	if err != nil {
		return s.corruptf(err)
	}
	orCellSet(dst, set)
	return nil
}

// loadRecord decodes a pair-record value and checks it is a record this
// store's lookups can index — the kind the strategy stores, carrying one
// input set per input space. Every record enters through here, so a value
// that does not decode, or decodes to the wrong shape, degrades the store
// instead of panicking a lookup.
func (s *Store) loadRecord(val []byte) (*record, error) {
	rec, err := decodeRecord(val)
	if err != nil {
		return nil, s.corruptf(err)
	}
	isPayload := rec.payload != nil
	if wantPayload := s.strat.Mode == Pay || s.strat.Mode == Comp; isPayload != wantPayload {
		return nil, s.corruptf(fmt.Errorf("lineage: %s store holds a %s record", s.strat, pairKind(isPayload)))
	}
	if !isPayload && len(rec.ins) != len(s.inSpaces) {
		return nil, s.corruptf(fmt.Errorf("lineage: pair record carries %d input sets, store has %d input spaces",
			len(rec.ins), len(s.inSpaces)))
	}
	return rec, nil
}

// scanCellEntries visits every cell entry of a slot (One encodings), tile
// by tile and in cell order within a tile. A tile that does not parse, or
// an entry outside its tile's entry region, is corruption.
func (s *Store) scanCellEntries(slot int, fn func(cell uint64, entry []byte) (bool, error)) error {
	var scanErr error
	var t cellTile
	err := s.kv.Scan(func(key, val []byte) bool {
		if len(key) != tileKeyLen || key[0] != keyTile || int(key[1]) != slot {
			return true
		}
		if err := t.parse(val); err != nil {
			scanErr = s.corruptf(err)
			return false
		}
		base := binary.BigEndian.Uint64(key[2:]) * binenc.TileCells
		i := 0
		for w, word := range t.blk {
			for ; word != 0; word &= word - 1 {
				entry, err := t.entry(i)
				if err != nil {
					scanErr = s.corruptf(err)
					return false
				}
				i++
				cont, err := fn(base+uint64(w*64+bits.TrailingZeros64(word)), entry)
				if err != nil {
					scanErr = err
					return false
				}
				if !cont {
					return false
				}
			}
		}
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	return err
}
