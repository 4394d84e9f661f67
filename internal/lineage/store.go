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

// ErrCorrupt marks a decode failure discovered at lookup time: a
// record the hashtable returned but the codec cannot make sense of, or a
// per-cell entry referencing a pair id the store does not hold. Lookups
// returning it have already marked the store degraded; the query executor
// answers via operator re-execution (the same fallback as ErrAborted) and
// the system schedules a background rebuild. Lineage is a recoverable
// cache — corruption degrades one store, never the daemon.
var ErrCorrupt = errors.New("lineage: store corrupt")

// fpDecode injects a decode failure at the record-lookup site, simulating
// the corruption a bit-flip or software bug would produce; the kv layer
// carries no checksum, so every such failure surfaces here.
var fpDecode = fault.Register("lineage/lookup/decode")

// StoreStats aggregates what the statistics collector records about one
// store's write path; the optimizer's cost model is calibrated from these.
// The operator's thread pays both durations: WriteTime is the bulk encodes
// of its batches (Builder.WritePairs), FlushTime the builder's one Flush
// (the record blocks, tiles and indexes it writes, and the hashtable sync).
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
// from Builder.Flush only and lives as long as its process: nothing
// reopens a flushed hashtable, since re-running the operator rebuilds it.
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

	// nextPair is the next record id: the store's records have ids below it.
	nextPair uint64

	// recMu guards recCache, which concurrent lookups fill. The cache
	// admits decoded records while it has room (recCacheLimit) and is never
	// wiped, so a working set larger than the limit keeps the records it
	// admitted first and replays the rest from their bytes. recMu is never
	// taken inside a kvstore callback.
	recMu    sync.Mutex
	recCache map[uint64]*record

	// stats is what the builder counted.
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
// with empty indexes, which NewBuilder writes. The strategy must be one
// that materializes pairs (Full, Pay, or Comp).
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
// were added, which is id order.
func (s *Store) buildTrees(boxes []slotBoxes) {
	for i := range s.trees {
		s.trees[i] = rtree.BulkLoadBoxes(s.slotSpace(i).Rank(), boxes[i].boxes, boxes[i].ids)
	}
}

// LogicalBytes returns the uncompressed footprint of the lineage this
// store holds — 8 bytes per stored out/in cell index plus the raw
// payload bytes — the denominator of the store's compression ratio
// (SizeBytes / LogicalBytes). It is derived from the accumulated volume
// stats.
func (s *Store) LogicalBytes() int64 {
	return (s.stats.OutCells+s.stats.InCells)*8 + s.stats.PayloadBytes
}

// SizeBytes returns the storage charged to this store: the hashtable's log
// plus the encoded size of the spatial indexes a Many store keeps in
// memory.
func (s *Store) SizeBytes() int64 {
	n := s.kv.SizeBytes()
	for _, tr := range s.trees {
		n += int64(tr.EncodedLen())
	}
	return n
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
