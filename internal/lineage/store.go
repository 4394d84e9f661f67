package lineage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
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
//
// With the sharded ingest pipeline the write path has two sides, and the
// stats keep them apart: WriteTime is the total encode+commit work summed
// across every writer (one thread when serial, N shard workers when
// sharded), while EnqueueTime and FlushTime are the parts the operator's
// own thread pays under async ingest — the handoff (including backpressure
// stalls) and the end-of-run drain barrier. FlushTime also holds the
// store's final Flush (the pending cell-entry flush and the meta commit),
// which the operator thread pays on either path.
type StoreStats struct {
	Pairs        int
	OutCells     int64
	InCells      int64
	PayloadBytes int64
	WriteTime    time.Duration // encode+commit work, summed across shard workers
	EnqueueTime  time.Duration // operator-thread handoff incl. backpressure stalls
	FlushTime    time.Duration // operator-thread drain barrier (sharded) + final flush
	Shards       int           // shard workers that built the store (0 = serial)
}

// CriticalWriteTime estimates the wall-clock the strategy adds to a
// workflow run: for sharded ingest the encode work spreads across Shards
// workers while the operator thread pays enqueue + drain, so the critical
// path is the larger of the two; serial stores pay WriteTime and FlushTime
// inline. The strategy optimizer costs runtime overhead from this instead
// of the raw serial WriteTime.
func (ss StoreStats) CriticalWriteTime() time.Duration {
	if ss.Shards > 1 {
		perShard := ss.WriteTime / time.Duration(ss.Shards)
		op := ss.EnqueueTime + ss.FlushTime
		if perShard > op {
			return perShard
		}
		return op
	}
	return ss.WriteTime + ss.FlushTime
}

// Store holds the materialized region lineage of a single operator
// instance under a single strategy — one "operator specific datastore" of
// the paper's architecture. It encodes region pairs into a kvstore
// hashtable according to the strategy's encoding and orientation, and
// serves backward/forward lookups over them.
//
// One reader/writer lock, gate, guards everything a lookup reads and a write
// mutates in place: the R-trees, the per-cell entry buffers, the volume
// counters and the dirty flag. Lookups (Backward, Forward, ContainsOut) and
// the accessors (Stats, NumPairs, SizeBytes) hold it shared for their whole
// span, so any number run concurrently; index inserts, appends to the
// cell-entry buffers and the flush that sorts and writes them, the volume
// counters and Flush hold it exclusively. Record encoding and the record
// group commit stay outside it, so shard workers still encode one store in
// parallel. A lookup therefore sees every batch applied before it took the
// gate and never a torn one, whether the writer is WritePairs on another
// goroutine or a Coordinator's shard workers. It never waits on batches
// still queued in a pipeline: an answer during ingest is a subset of the
// final answer, and exact once the writer's Flush returns.
//
// The gate is not re-entrant: nothing that holds it may call back into the
// store's locking methods, and the callbacks a lookup runs (abort hooks,
// payload mapping functions) must not touch the store. Lock order is
// gate → recMu → kvstore.
type Store struct {
	strat    Strategy
	outSpace *grid.Space
	inSpaces []*grid.Space
	kv       kvstore.Store

	gate sync.RWMutex

	// trees index the key side of Many encodings: slot 0 holds output
	// bounding boxes for backward-optimized stores; slot i holds input-i
	// bounding boxes for forward-optimized stores. Guarded by gate.
	trees    []*rtree.Tree
	dirtyIdx bool

	// nextPair allocates record ids; the ingest coordinator reserves id
	// ranges from it on the enqueueing thread so ids stay dense and
	// deterministic regardless of shard scheduling.
	nextPair atomic.Uint64

	// Per-cell entries of One encodings wait in pending, one append-only
	// buffer per slot, until a flush sorts each buffer once and writes
	// every touched tile with one PutBatch. A cellRef's ref is the pair id,
	// or for payload stores an index into pendingPay; pendingEntryBytes
	// estimates the entries the buffered references will take (SizeBytes).
	// mayHoldCells is set once the hashtable may hold cell entries — the
	// store was opened non-empty or has flushed — and only then does a
	// flush read the touched tiles back to merge into. Guarded by gate.
	pending           [][]cellRef
	pendingPay        [][]byte
	pendingCount      int
	pendingEntryBytes int64
	mayHoldCells      bool

	// stale is set at open when the hashtable holds per-cell keys of the
	// layout before tiles; every lookup, write and flush then reports
	// errStaleCells.
	stale bool

	// recMu guards recCache, which lookups fill while holding the gate
	// only shared. The cache admits decoded records while it has room
	// (recCacheLimit) and is never wiped, so a working set larger than the
	// limit keeps the records it admitted first and replays the rest from
	// their bytes. recMu is never taken inside a kvstore callback.
	recMu    sync.Mutex
	recCache map[uint64]*record

	// stats holds the volume counters and Shards, guarded by gate; the
	// duration counters are atomics so concurrent shard workers aggregate
	// without a lock and without under-reporting.
	stats     StoreStats
	writeNS   atomic.Int64
	enqueueNS atomic.Int64
	flushNS   atomic.Int64

	// degraded latches when a lookup hits corruption (see ErrCorrupt);
	// healing claims the store for a single background rebuild.
	degraded atomic.Bool
	healing  atomic.Bool
}

const (
	pendingFlushThreshold = 1 << 18
	recCacheLimit         = 1 << 13
	abortCheckInterval    = 64
)

// OpenStore creates (or reopens) a lineage store over the given hashtable.
// The strategy must be one that materializes pairs (Full, Pay, or Comp).
// Reopening a non-empty hashtable restores the pair counter and rebuilds
// the spatial indexes from their persisted form.
func OpenStore(kv kvstore.Store, strat Strategy, outSpace *grid.Space, inSpaces []*grid.Space) (*Store, error) {
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
	nSlots := 1
	if strat.Orient == ForwardOpt {
		nSlots = len(inSpaces)
	}
	if strat.Enc == Many {
		s.trees = make([]*rtree.Tree, nSlots)
		for i := range s.trees {
			s.trees[i] = rtree.New(s.slotSpace(i).Rank())
		}
	}
	if strat.Enc == One {
		s.pending = make([][]cellRef, nSlots)
		s.mayHoldCells = kv.Len() > 0
	}
	if err := s.loadMeta(); err != nil {
		return nil, err
	}
	return s, nil
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
// Version 2 marks stores whose cell entries are keyed per tile. A version-1
// blob has the same layout; it loads for a Many store, which holds no cell
// entries, but a One store that wrote one may hold per-cell keys, so its
// blob is not loaded and the store goes through rebuildMeta, which finds
// them.
const metaBlobVersion = 2

func (s *Store) encodeMetaBlob() []byte {
	buf := []byte{metaBlobVersion}
	buf = binary.AppendUvarint(buf, s.nextPair.Load())
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
	if len(blob) == 0 || blob[0] != metaBlobVersion && (blob[0] != 1 || s.strat.Enc != Many) {
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
	s.nextPair.Store(next)
	s.decodeStats(statsBlob)
	for i := range s.trees {
		if i < len(trees) {
			s.trees[i] = trees[i]
		}
	}
	return nil
}

// rebuildMeta reconstructs the pair counter and (for Many encodings) the
// spatial indexes by scanning the surviving pair records — the recovery
// path for a store whose meta was lost to a crash or corruption. Lineage
// is a recoverable cache, so best effort is enough: statistics are gone,
// but every surviving pair stays queryable.
//
// A One store holding per-cell keys of the layout before tiles is stale:
// no lookup reads those keys, so it would answer empty. It is marked
// degraded instead: every lookup reports ErrCorrupt (errStaleCells), so the
// query executor re-executes while the heal loop rebuilds the store in this
// layout, and every write and flush is refused, so nothing lands beside the
// old keys or commits a meta blob that would hide them.
func (s *Store) rebuildMeta() error {
	if s.strat.Enc == One {
		if err := s.kv.Scan(func(key, _ []byte) bool {
			s.stale = len(key) > 0 && key[0] == keyStaleCell
			return !s.stale
		}); err != nil {
			return err
		}
		if s.stale {
			s.degraded.Store(true)
			return nil
		}
	}
	var maxID uint64
	var any bool
	err := s.scanRecords(func(id uint64, rec *record) (bool, error) {
		any = true
		if id > maxID {
			maxID = id
		}
		if s.strat.Enc == Many {
			if s.strat.Orient == BackwardOpt {
				if bb, ok := grid.BoundingBox(s.outSpace, rec.outs.cells(nil)); ok {
					if err := s.trees[0].Insert(rtree.Item{Rect: bb, ID: id}); err != nil {
						return false, err
					}
				}
			} else {
				for i := range rec.ins {
					if bb, ok := grid.BoundingBox(s.inSpaces[i], rec.ins[i].cells(nil)); ok {
						if err := s.trees[i].Insert(rtree.Item{Rect: bb, ID: id}); err != nil {
							return false, err
						}
					}
				}
			}
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	if any {
		s.nextPair.Store(maxID + 1)
		if s.strat.Enc == Many {
			s.dirtyIdx = true
		}
	}
	return nil
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

// errStaleCells is what a stale store (see rebuildMeta) reports.
var errStaleCells = errors.New("lineage: store holds per-cell entries of a layout before tiles")

// corruptf marks the store degraded and wraps err so it matches both
// ErrCorrupt and the original cause via errors.Is.
func (s *Store) corruptf(err error) error {
	s.degraded.Store(true)
	return fmt.Errorf("%w: %w", ErrCorrupt, err)
}

// Stats returns the accumulated write statistics.
func (s *Store) Stats() StoreStats {
	s.gate.RLock()
	defer s.gate.RUnlock()
	return s.statsLocked()
}

// statsLocked merges the atomic duration counters into the volume
// snapshot. The caller holds the gate.
func (s *Store) statsLocked() StoreStats {
	st := s.stats
	st.WriteTime = time.Duration(s.writeNS.Load())
	st.EnqueueTime = time.Duration(s.enqueueNS.Load())
	st.FlushTime = time.Duration(s.flushNS.Load())
	return st
}

// AddWriteTime accrues time spent by the runtime serializing into this
// store; it is part of the strategy's runtime overhead. The counter is
// atomic so concurrent shard workers aggregate their per-shard durations
// without under-reporting.
func (s *Store) AddWriteTime(d time.Duration) { s.writeNS.Add(int64(d)) }

// AddEnqueueTime accrues operator-thread handoff time (including
// backpressure stalls) under sharded ingest.
func (s *Store) AddEnqueueTime(d time.Duration) { s.enqueueNS.Add(int64(d)) }

// AddFlushTime accrues operator-thread drain/flush time.
func (s *Store) AddFlushTime(d time.Duration) { s.flushNS.Add(int64(d)) }

// addVolumes accumulates the pair/cell volume counters for one batch. The
// caller holds the gate exclusively.
func (s *Store) addVolumes(pairs int, outCells, inCells, payloadBytes int64) {
	s.stats.Pairs += pairs
	s.stats.OutCells += outCells
	s.stats.InCells += inCells
	s.stats.PayloadBytes += payloadBytes
}

// setShards records how many ingest shard workers feed this store.
func (s *Store) setShards(n int) {
	s.gate.Lock()
	s.stats.Shards = n
	s.gate.Unlock()
}

// NumPairs returns the number of region pairs written.
func (s *Store) NumPairs() int {
	s.gate.RLock()
	defer s.gate.RUnlock()
	return s.stats.Pairs
}

// reserveIDs allocates n consecutive pair ids. The ingest coordinator
// calls it on the enqueueing thread, so id assignment is deterministic in
// enqueue order no matter how shard workers are scheduled — a store built
// with any shard count holds byte-identical records.
func (s *Store) reserveIDs(n int) uint64 {
	return s.nextPair.Add(uint64(n)) - uint64(n)
}

// reservePairIDs reserves one id per pair for record-storing encodings,
// or nil when the encoding stores no records (PayOne). The synchronous
// write path and the ingest coordinator share it so id assignment can
// never diverge between them.
func (s *Store) reservePairIDs(n int) []uint64 {
	if !s.storesRecords() {
		return nil
	}
	base := s.reserveIDs(n)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = base + uint64(i)
	}
	return ids
}

// storesRecords reports whether the encoding writes per-pair records (and
// therefore needs pair ids). PayOne duplicates payloads into cell entries
// instead.
func (s *Store) storesRecords() bool {
	return !(s.strat.Enc == One && (s.strat.Mode == Pay || s.strat.Mode == Comp))
}

// checkPairKind validates that the pair carries what the strategy stores.
func (s *Store) checkPairKind(rp *RegionPair) error {
	wantPayload := s.strat.Mode == Pay || s.strat.Mode == Comp
	if rp.IsPayload() != wantPayload {
		return fmt.Errorf("lineage: %s store got %s pair", s.strat, pairKind(rp.IsPayload()))
	}
	return nil
}

func pairKind(payload bool) string {
	if payload {
		return "payload"
	}
	return "full"
}

// batchVolumes sums the volume counters of a batch.
func batchVolumes(pairs []RegionPair) (outCells, inCells, payloadBytes int64) {
	for i := range pairs {
		rp := &pairs[i]
		outCells += int64(len(rp.Out))
		for _, in := range rp.Ins {
			inCells += int64(len(in))
		}
		payloadBytes += int64(len(rp.Payload))
	}
	return
}

// WritePairs encodes a batch of region pairs into the store on the
// calling thread — the synchronous write path. Pairs must already be
// normalized and validated (the writer does both). Record values are
// group-committed through one kvstore batch per call.
func (s *Store) WritePairs(pairs []RegionPair) error {
	for i := range pairs {
		if err := s.checkPairKind(&pairs[i]); err != nil {
			return err
		}
	}
	return s.ingestBatch(pairs, s.reservePairIDs(len(pairs)))
}

// ingestBatch applies one batch of pairs: encode records, group-commit
// them, index them, and buffer the per-cell entries. It is the shared
// write path of WritePairs (synchronous) and the coordinator's shard
// workers (concurrent). Encoding, the record commit and the bounding boxes
// run outside the gate, so workers serialize only on the in-place updates.
func (s *Store) ingestBatch(pairs []RegionPair, ids []uint64) error {
	if s.stale {
		return s.corruptf(errStaleCells)
	}
	// Encode and group-commit the pair records first: per-cell entries
	// and index items must never reference a record the hashtable does
	// not hold yet.
	if ids != nil {
		recs := make([]kvstore.KV, len(pairs))
		for i := range pairs {
			recs[i] = kvstore.KV{Key: pairKey(ids[i]), Val: encodeRecord(&pairs[i])}
		}
		if err := s.kv.PutBatch(recs); err != nil {
			return err
		}
	}
	var items []slotItem
	if s.strat.Enc == Many {
		items = s.indexItems(pairs, ids)
	}
	out, in, pay := batchVolumes(pairs)

	s.gate.Lock()
	defer s.gate.Unlock()
	if s.strat.Enc == Many {
		for _, it := range items {
			if err := s.trees[it.slot].Insert(it.item); err != nil {
				return err
			}
		}
		s.dirtyIdx = true
	} else if err := s.bufferCellEntries(pairs, ids); err != nil {
		return err
	}
	s.addVolumes(len(pairs), out, in, pay)
	return nil
}

// slotItem is one R-tree insert awaiting the gate.
type slotItem struct {
	slot int
	item rtree.Item
}

// indexItems computes one R-tree item per (pair, slot) for Many encodings.
func (s *Store) indexItems(pairs []RegionPair, ids []uint64) []slotItem {
	items := make([]slotItem, 0, len(pairs))
	for i := range pairs {
		rp := &pairs[i]
		if s.strat.Orient == BackwardOpt {
			if bb, ok := grid.BoundingBox(s.outSpace, rp.Out); ok {
				items = append(items, slotItem{0, rtree.Item{Rect: bb, ID: ids[i]}})
			}
		} else {
			for j, in := range rp.Ins {
				if bb, ok := grid.BoundingBox(s.inSpaces[j], in); ok {
					items = append(items, slotItem{j, rtree.Item{Rect: bb, ID: ids[i]}})
				}
			}
		}
	}
	return items
}

// cellRef is one buffered per-cell entry: a cell of the slot's key side
// and the pair id, or payload index, its entry lists.
type cellRef struct{ cell, ref uint64 }

// bufferCellEntries appends one batch's per-cell references (FullOne ids,
// PayOne payload duplicates) to the pending buffers, flushing to the
// hashtable when the threshold is crossed. The caller holds the gate
// exclusively.
func (s *Store) bufferCellEntries(pairs []RegionPair, ids []uint64) error {
	for i := range pairs {
		rp := &pairs[i]
		switch {
		case ids == nil:
			// PayOne stores no records, so its pairs have no ids: the
			// payload is duplicated under every output cell.
			ref := uint64(len(s.pendingPay))
			s.pendingPay = append(s.pendingPay, rp.Payload)
			for _, c := range rp.Out {
				s.pending[0] = append(s.pending[0], cellRef{c, ref})
			}
			s.pendingCount += len(rp.Out)
			s.pendingEntryBytes += int64(len(rp.Payload)) + EstPayEntryBytes
		case s.strat.Orient == BackwardOpt:
			for _, c := range rp.Out {
				s.pending[0] = append(s.pending[0], cellRef{c, ids[i]})
			}
			s.pendingCount += len(rp.Out)
			s.pendingEntryBytes += EstIDEntryBytes
		default:
			for j, in := range rp.Ins {
				for _, c := range in {
					s.pending[j] = append(s.pending[j], cellRef{c, ids[i]})
				}
				s.pendingCount += len(in)
				s.pendingEntryBytes += int64(len(in)) * EstIDEntryBytes
			}
		}
	}
	if s.pendingCount >= pendingFlushThreshold {
		return s.flushPendingLocked()
	}
	return nil
}

// beginRead is the lookup-path gate: take the gate shared with no per-cell
// entry still buffered. Buffered entries are merged under the exclusive
// gate first; a writer can slip in between that merge and the shared
// acquisition, hence the loop. On a nil return the caller holds the gate
// shared and must RUnlock it when the lookup finishes.
func (s *Store) beginRead() error {
	if s.stale {
		return s.corruptf(errStaleCells)
	}
	for {
		s.gate.RLock()
		if s.pendingCount == 0 {
			return nil
		}
		s.gate.RUnlock()
		s.gate.Lock()
		err := s.flushPendingLocked()
		s.gate.Unlock()
		if err != nil {
			return err
		}
	}
}

// flushPendingLocked writes the buffered per-cell entries to the
// hashtable, one value per touched (slot, tile). Each slot's buffer is
// sorted once, by cell and then by pair id or payload bytes, so a cell's
// references form one run, its list is sorted, and a tile's runs are
// consecutive: the stored bytes do not depend on which shard worker
// buffered which pair. Keys and values are encoded into two arenas and
// written, in slot and tile order, by one PutBatch group commit. Only a
// store that may already hold cell entries reads the touched tiles back
// first, through one GetBatch pass, and merges the fresh runs into them.
// The caller holds the gate exclusively.
func (s *Store) flushPendingLocked() error {
	if s.pendingCount == 0 {
		return nil
	}
	n := 0
	for _, refs := range s.pending {
		// pendingPay is non-nil exactly when a payload store has buffered
		// entries.
		if s.pendingPay != nil {
			slices.SortFunc(refs, func(a, b cellRef) int {
				if c := cmp.Compare(a.cell, b.cell); c != 0 || a.ref == b.ref {
					return c
				}
				return bytes.Compare(s.pendingPay[a.ref], s.pendingPay[b.ref])
			})
		} else {
			slices.SortFunc(refs, func(a, b cellRef) int {
				if c := cmp.Compare(a.cell, b.cell); c != 0 {
					return c
				}
				return cmp.Compare(a.ref, b.ref)
			})
		}
		for i := range refs {
			if i == 0 || refs[i].cell/binenc.TileCells != refs[i-1].cell/binenc.TileCells {
				n++
			}
		}
	}
	runs := make([]tileRun, 0, n)
	for slot, refs := range s.pending {
		for lo := 0; lo < len(refs); {
			tile := refs[lo].cell / binenc.TileCells
			hi := lo + 1
			for hi < len(refs) && refs[hi].cell/binenc.TileCells == tile {
				hi++
			}
			runs = append(runs, tileRun{slot: slot, lo: lo, hi: hi})
			lo = hi
		}
	}

	keyArena := make([]byte, 0, tileKeyLen*len(runs))
	for _, r := range runs {
		keyArena = appendTileKey(keyArena, r.slot, s.pending[r.slot][r.lo].cell/binenc.TileCells)
	}
	key := func(i int) []byte { return keyArena[tileKeyLen*i : tileKeyLen*(i+1) : tileKeyLen*(i+1)] }
	// The arena is sized for two-byte ids; append grows it past that.
	enc := tileEncoder{pay: s.pendingPay, vals: make([]byte, 0, 8*len(runs)+4*s.pendingCount)}
	if s.mayHoldCells {
		keys := make([][]byte, len(runs))
		for i := range keys {
			keys[i] = key(i)
		}
		if err := s.kv.GetBatch(keys, func(i int, old []byte, ok bool) bool {
			r := &runs[i]
			enc.add(s.pending[r.slot][r.lo:r.hi], old, ok)
			r.end = len(enc.vals)
			return enc.err == nil
		}); err != nil {
			return err
		}
	} else {
		for i := range runs {
			r := &runs[i]
			enc.add(s.pending[r.slot][r.lo:r.hi], nil, false)
			r.end = len(enc.vals)
		}
	}
	if enc.err != nil {
		return enc.err
	}
	batch := make([]kvstore.KV, len(runs))
	from := 0
	for i, r := range runs {
		batch[i] = kvstore.KV{Key: key(i), Val: enc.vals[from:r.end:r.end]}
		from = r.end
	}
	// A failed batch may have applied a prefix, so the flag goes first.
	s.mayHoldCells = true
	if err := s.kv.PutBatch(batch); err != nil {
		return err
	}
	for slot := range s.pending {
		s.pending[slot] = nil
	}
	s.pendingPay = nil
	s.pendingCount, s.pendingEntryBytes = 0, 0
	return nil
}

// tileRun is one tile value of a flush: the span [lo, hi) of its slot's
// sorted pending buffer, and where its value ends in the value arena.
type tileRun struct{ slot, lo, hi, end int }

// tileEncoder appends the values of one flush's tiles to one arena,
// reusing its scratch across tiles. pay is the store's pendingPay: nil for
// id stores.
type tileEncoder struct {
	pay  [][]byte
	vals []byte
	err  error

	// One tile's cells, entry starts and entries; the tile it merges, that
	// tile's cells, and where each of their entries ends.
	locals    []uint64
	starts    []int
	entries   []byte
	old       cellTile
	oldLocals []uint64
	oldEnds   []uint64

	// One cell's merged list.
	ids  []uint64
	pays [][]byte
}

// add appends the tile value for one tile's sorted run of references.
// When the hashtable already holds the tile (found), its cells and the
// run's merge in cell order: a cell only the old tile holds keeps its entry
// bytes, and a cell both hold gets the merged list. old is only valid
// until add returns.
func (e *tileEncoder) add(refs []cellRef, old []byte, found bool) {
	e.locals, e.starts, e.entries = e.locals[:0], e.starts[:0], e.entries[:0]
	e.oldLocals, e.oldEnds = e.oldLocals[:0], e.oldEnds[:0]
	if found {
		if e.err = e.old.parse(old); e.err != nil {
			return
		}
		e.oldLocals = e.old.appendLocals(e.oldLocals)
		e.oldEnds = e.old.appendNextStarts(e.oldEnds)
	}
	oi := 0
	for lo := 0; lo < len(refs); {
		local := refs[lo].cell % binenc.TileCells
		hi := lo + 1
		for hi < len(refs) && refs[hi].cell == refs[lo].cell {
			hi++
		}
		for ; oi < len(e.oldLocals) && e.oldLocals[oi] < local; oi++ {
			e.keepOld(oi)
		}
		var entry []byte
		merge := oi < len(e.oldLocals) && e.oldLocals[oi] == local
		if merge && e.err == nil {
			entry, e.err = e.old.entry(oi)
			oi++
		}
		from := len(e.entries)
		e.addCell(refs[lo:hi], entry, merge)
		e.commit(local, from)
		lo = hi
	}
	for ; oi < len(e.oldLocals); oi++ {
		e.keepOld(oi)
	}
	if e.err == nil {
		e.vals = appendTileValue(e.vals, e.locals, e.starts, e.entries)
	}
}

// keepOld copies the merged tile's i'th entry unchanged.
func (e *tileEncoder) keepOld(i int) {
	if e.err != nil {
		return
	}
	var entry []byte
	entry, e.err = e.old.entrySpan(i, e.oldEnds[i])
	from := len(e.entries)
	e.entries = append(e.entries, entry...)
	e.commit(e.oldLocals[i], from)
}

// commit records the entry appended at e.entries[from:] for one cell. An
// entry equal to the previous cell's is dropped and that entry's start
// reused, so equal neighbours share their bytes.
func (e *tileEncoder) commit(local uint64, from int) {
	if n := len(e.starts); n > 0 {
		if prev := e.starts[n-1]; bytes.Equal(e.entries[prev:from], e.entries[from:]) {
			e.entries, from = e.entries[:from], prev
		}
	}
	e.locals, e.starts = append(e.locals, local), append(e.starts, from)
}

// addCell appends one cell's entry for a sorted run of references. When
// the tile already held an entry for the cell (merge), its list is decoded
// and merged with the run's, and the merged list sorted again; payloads
// alias old and e.pay, so addCell must finish before either is reused.
func (e *tileEncoder) addCell(run []cellRef, old []byte, merge bool) {
	if e.err != nil {
		return
	}
	if e.pay != nil {
		e.pays = e.pays[:0]
		if merge {
			e.err = forEachPayload(old, func(p []byte) error {
				e.pays = append(e.pays, p)
				return nil
			})
		}
		for _, r := range run {
			e.pays = append(e.pays, e.pay[r.ref])
		}
		if merge {
			slices.SortStableFunc(e.pays, bytes.Compare)
		}
		e.entries = appendPayloadEntry(e.entries, e.pays)
		return
	}
	e.ids = e.ids[:0]
	if merge {
		e.ids, e.err = appendIDList(e.ids, old)
	}
	for _, r := range run {
		e.ids = append(e.ids, r.ref)
	}
	if merge {
		slices.Sort(e.ids)
	}
	e.entries = appendIDEntry(e.entries, e.ids)
}

// Flush persists pending entries, then syncs the hashtable and commits the
// pair counter, stats, and serialized indexes as one all-or-nothing blob,
// so a crash mid-flush leaves either the previous consistent metadata or
// the new one — never a store that half-loads. SizeBytes is exact after
// Flush.
func (s *Store) Flush() error {
	if s.stale {
		return s.corruptf(errStaleCells)
	}
	s.gate.Lock()
	defer s.gate.Unlock()
	if err := s.flushPendingLocked(); err != nil {
		return err
	}
	// Data first, then the meta blob: metadata must never describe
	// records the log has not durably absorbed.
	if err := s.kv.Sync(); err != nil {
		return err
	}
	if err := s.kv.CommitMeta(s.encodeMetaBlob()); err != nil {
		return err
	}
	s.dirtyIdx = false
	return nil
}

// encodeStats serializes the write statistics for the meta blob. Flush
// calls it holding the gate, so it must not go through Stats.
func (s *Store) encodeStats() []byte {
	st := s.statsLocked()
	buf := binary.AppendUvarint(nil, uint64(st.Pairs))
	buf = binary.AppendUvarint(buf, uint64(st.OutCells))
	buf = binary.AppendUvarint(buf, uint64(st.InCells))
	buf = binary.AppendUvarint(buf, uint64(st.PayloadBytes))
	// Durations are fixed-width: a varint here would make the record's
	// size — and thus SizeBytes — depend on wall-clock timing, breaking
	// the determinism the benchmarks and their tests rely on.
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.WriteTime))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.EnqueueTime))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.FlushTime))
	return binary.LittleEndian.AppendUint32(buf, uint32(st.Shards))
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
	if len(vals) != 4 || len(val)-off != 8+8+8+4 {
		return
	}
	st := StoreStats{
		Pairs:        int(vals[0]),
		OutCells:     int64(vals[1]),
		InCells:      int64(vals[2]),
		PayloadBytes: int64(vals[3]),
		WriteTime:    time.Duration(binary.LittleEndian.Uint64(val[off:])),
		EnqueueTime:  time.Duration(binary.LittleEndian.Uint64(val[off+8:])),
		FlushTime:    time.Duration(binary.LittleEndian.Uint64(val[off+16:])),
		Shards:       int(binary.LittleEndian.Uint32(val[off+24:])),
	}
	s.stats = st
	s.writeNS.Store(int64(st.WriteTime))
	s.enqueueNS.Store(int64(st.EnqueueTime))
	s.flushNS.Store(int64(st.FlushTime))
}

// LogicalBytes returns the uncompressed footprint of the lineage this
// store holds — 8 bytes per stored out/in cell index plus the raw
// payload bytes — the denominator of the store's compression ratio
// (SizeBytes / LogicalBytes). It is derived from the accumulated volume
// stats, so it survives reopen like the rest of StoreStats.
func (s *Store) LogicalBytes() int64 {
	st := s.Stats()
	return (st.OutCells+st.InCells)*8 + st.PayloadBytes
}

// SizeBytes returns the storage charged to this store: the hashtable size
// plus an estimate for any not-yet-flushed state. Buffered cell references
// are priced as the strategy optimizer prices a One store (costs.go): each
// adds its cell (EstCellEntryBytes), and pendingEntryBytes holds the
// entries they will share.
func (s *Store) SizeBytes() int64 {
	s.gate.RLock()
	defer s.gate.RUnlock()
	size := s.kv.SizeBytes() + int64(s.pendingCount)*EstCellEntryBytes + s.pendingEntryBytes
	if s.dirtyIdx {
		for _, tr := range s.trees {
			size += int64(tr.EncodedLen())
		}
	}
	return size
}

func (s *Store) getRecord(id uint64) (*record, error) {
	s.recMu.Lock()
	rec, ok := s.recCache[id]
	s.recMu.Unlock()
	if ok {
		return rec, nil
	}
	if err := fault.Inject(fpDecode); err != nil {
		return nil, s.corruptf(err)
	}
	val, ok, err := s.kv.Get(pairKey(id))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, s.danglingf(id)
	}
	rec, err = s.loadRecord(val)
	if err != nil {
		return nil, err
	}
	s.recMu.Lock()
	s.admitLocked(id, rec)
	s.recMu.Unlock()
	return rec, nil
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

// scanRecords visits every pair record.
func (s *Store) scanRecords(fn func(id uint64, rec *record) (bool, error)) error {
	var scanErr error
	err := s.kv.Scan(func(key, val []byte) bool {
		if len(key) == 0 || key[0] != keyPair {
			return true
		}
		id, n := binary.Uvarint(key[1:])
		if n <= 0 {
			scanErr = s.corruptf(fmt.Errorf("lineage: corrupt pair key"))
			return false
		}
		rec, err := s.loadRecord(val)
		if err != nil {
			scanErr = err
			return false
		}
		cont, err := fn(id, rec)
		if err != nil {
			scanErr = err
			return false
		}
		return cont
	})
	if scanErr != nil {
		return scanErr
	}
	return err
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
