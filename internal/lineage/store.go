package lineage

import (
	"bytes"
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
// The operator's thread pays both durations: WriteTime is the bulk encodes
// of its batches (WritePairs), FlushTime the store's one Flush (the record
// blocks, tiles and indexes it writes and the meta commit).
type StoreStats struct {
	Pairs        int
	OutCells     int64
	InCells      int64
	PayloadBytes int64
	WriteTime    time.Duration // WritePairs: encode and commit of each batch
	FlushTime    time.Duration // Flush
}

// Store holds the materialized region lineage of a single operator
// instance under a single strategy — one "operator specific datastore" of
// the paper's architecture. It encodes region pairs into a kvstore
// hashtable according to the strategy's encoding and orientation, and
// serves backward/forward lookups over them.
//
// A store has one lifecycle: write, one Flush, then read. Until Flush it
// takes writes (WritePairs) and refuses lookups; Flush writes every
// buffered cell entry once and seals it; from then on it answers lookups
// and refuses writes. A store opened over a non-empty hashtable opens
// sealed.
//
// mu serializes the write side: id assignment, the record block stage,
// appends to the index and cell-entry buffers, the volume counters and
// Flush. Nothing a lookup reads changes once the store is sealed, so
// lookups (Backward, Forward, ContainsOut) take no lock but recMu around
// the record cache. Lock order is mu → kvstore and
// recMu → kvstore. The callbacks a lookup runs (abort hooks, payload
// mapping functions) must not touch the store.
type Store struct {
	strat    Strategy
	outSpace *grid.Space
	inSpaces []*grid.Space
	kv       kvstore.Store

	mu     sync.Mutex
	sealed atomic.Bool

	// trees index the key side of Many encodings: slot 0 holds output
	// bounding boxes for backward-optimized stores; slot i holds input-i
	// bounding boxes for forward-optimized stores. Until Flush each slot's
	// items wait in pendingBoxes (guarded by mu); Flush bulk-loads each
	// tree once, and nothing reads a tree before the store is sealed.
	trees        []*rtree.Tree
	pendingBoxes []slotBoxes

	// rebuiltIdx is the encoded size of the trees rebuildMeta built for a
	// store reopened without a usable meta blob: no blob holds them, so the
	// hashtable's size leaves them out.
	rebuiltIdx int64

	// nextPair is the next record id. Writes assign ids under mu, in the
	// order their batches take it; lookups read it once the store is
	// sealed.
	nextPair atomic.Uint64

	// Per-cell entries of One encodings wait in pending, one append-only
	// buffer per slot, until Flush sorts each buffer once and writes every
	// touched tile with one PutBatch. A cellRef's ref is the pair id, or for
	// payload stores the index of a payload copied into pendingPay (the
	// store keeps no caller memory past WritePairs). Guarded by mu.
	pending    [][]cellRef
	pendingPay payArena

	// stage holds the records of the last block, which is not complete
	// yet (see stageRecords); nil until the first record and after Flush.
	// Guarded by mu.
	stage *blockStage

	// stale is set at open when the hashtable holds keys of an earlier
	// layout; every lookup, write and flush then reports errStaleLayout.
	stale bool

	// recMu guards recCache, which concurrent lookups fill. The cache
	// admits decoded records while it has room (recCacheLimit) and is never
	// wiped, so a working set larger than the limit keeps the records it
	// admitted first and replays the rest from their bytes. recMu is never
	// taken inside a kvstore callback.
	recMu    sync.Mutex
	recCache map[uint64]*record

	// stats holds the volume counters, guarded by mu; the duration
	// counters are atomics, so concurrent writers add to them without a
	// lock and without under-reporting.
	stats   StoreStats
	writeNS atomic.Int64
	flushNS atomic.Int64

	// degraded latches when a lookup hits corruption (see ErrCorrupt);
	// healing claims the store for a single background rebuild.
	degraded atomic.Bool
	healing  atomic.Bool
}

const (
	recCacheLimit      = 1 << 13
	abortCheckInterval = 64
)

// OpenStore creates (or reopens) a lineage store over the given hashtable.
// The strategy must be one that materializes pairs (Full, Pay, or Comp).
// Reopening a hashtable that holds records or a meta blob restores the
// pair counter and rebuilds the spatial indexes from their persisted form,
// and yields a sealed store.
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
		s.pendingBoxes = make([]slotBoxes, nSlots)
	}
	if strat.Enc == One {
		s.pending = make([][]cellRef, nSlots)
	}
	hasMeta, err := s.loadMeta()
	if err != nil {
		return nil, err
	}
	// A flushed store holds a meta blob even when it holds no pair, and a
	// store a crash cut before its meta commit holds records: either way it
	// was written before and is sealed. Executor.openEmpty applies the same
	// test.
	s.sealed.Store(hasMeta || kv.Len() > 0)
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
// rather than half-loading. hasMeta reports whether the hashtable holds a
// meta blob, usable or not.
func (s *Store) loadMeta() (hasMeta bool, err error) {
	blob, ok, err := s.kv.LoadMeta()
	if err != nil {
		return false, err
	}
	if ok && s.decodeMetaBlob(blob) == nil {
		return true, nil
	}
	if s.kv.Len() > 0 {
		return ok, s.rebuildMeta()
	}
	return ok, nil
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
	s.nextPair.Store(next)
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
// rebuilds the store in this layout, and every write and flush is refused,
// so nothing lands beside the old keys or commits a meta blob that would
// hide them.
func (s *Store) rebuildMeta() error {
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
					s.pendingBoxes[0].add(s.outSpace, rec.outs.cells(nil), id)
				} else {
					for j := range rec.ins {
						s.pendingBoxes[j].add(s.inSpaces[j], rec.ins[j].cells(nil), id)
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
	s.nextPair.Store(maxID + 1)
	// The scan visits blocks in log order, which is id order, so the
	// rebuilt trees are the ones Flush built.
	s.buildTrees()
	for _, tr := range s.trees {
		s.rebuiltIdx += int64(tr.EncodedLen())
	}
	s.pendingBoxes = nil
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

// errSealed is what a write to a flushed store reports, and errUnsealed
// what a lookup on a store not flushed yet reports.
var (
	errSealed   = errors.New("lineage: store is flushed and takes no more writes")
	errUnsealed = errors.New("lineage: store is not flushed yet")
)

// writable reports why the store takes no writes, if it does not.
func (s *Store) writable() error {
	if s.stale {
		return s.corruptf(errStaleLayout)
	}
	if s.sealed.Load() {
		return errSealed
	}
	return nil
}

// readable reports why the store answers no lookups, if it does not.
func (s *Store) readable() error {
	if s.stale {
		return s.corruptf(errStaleLayout)
	}
	if !s.sealed.Load() {
		return errUnsealed
	}
	return nil
}

// corruptf marks the store degraded and wraps err so it matches both
// ErrCorrupt and the original cause via errors.Is.
func (s *Store) corruptf(err error) error {
	s.degraded.Store(true)
	return fmt.Errorf("%w: %w", ErrCorrupt, err)
}

// Stats returns the accumulated write statistics.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// statsLocked merges the atomic duration counters into the volume
// snapshot. The caller holds mu.
func (s *Store) statsLocked() StoreStats {
	st := s.stats
	st.WriteTime = time.Duration(s.writeNS.Load())
	st.FlushTime = time.Duration(s.flushNS.Load())
	return st
}

// AddWriteTime accrues time spent by the runtime serializing into this
// store; it is part of the strategy's runtime overhead.
func (s *Store) AddWriteTime(d time.Duration) { s.writeNS.Add(int64(d)) }

// AddFlushTime accrues time spent in the store's Flush.
func (s *Store) AddFlushTime(d time.Duration) { s.flushNS.Add(int64(d)) }

// addVolumes accumulates the pair/cell volume counters for one batch. The
// caller holds mu.
func (s *Store) addVolumes(pairs int, outCells, inCells, payloadBytes int64) {
	s.stats.Pairs += pairs
	s.stats.OutCells += outCells
	s.stats.InCells += inCells
	s.stats.PayloadBytes += payloadBytes
}

// NumPairs returns the number of region pairs written.
func (s *Store) NumPairs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Pairs
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
// calling thread. Pairs must already be normalized and validated (the
// writer does both). The batch's records take the next ids, in the order
// batches take mu, and are staged in their 64-id blocks; the blocks the
// batch completes are group-committed through one kvstore batch after mu is
// released. Nothing a lookup reads is written before Flush, which writes
// the partial block before any cell entry. A sealed store refuses the
// batch.
func (s *Store) WritePairs(pairs []RegionPair) error {
	for i := range pairs {
		if err := s.checkPairKind(&pairs[i]); err != nil {
			return err
		}
	}
	if err := s.writable(); err != nil {
		return err
	}
	records := s.storesRecords()
	a := recordArenas.Get().(*recordArena)
	defer recordArenas.Put(a)
	a.reset()
	if records {
		for i := range pairs {
			a.recs = appendRecord(a.recs, &pairs[i])
			a.ends = append(a.ends, len(a.recs))
		}
	}
	out, in, pay := batchVolumes(pairs)

	s.mu.Lock()
	if s.sealed.Load() {
		s.mu.Unlock()
		return errSealed
	}
	base := s.nextPair.Load()
	if records {
		s.nextPair.Store(base + uint64(len(pairs)))
		s.stageRecords(a, base)
	}
	if s.strat.Enc == Many {
		s.bufferBoxes(pairs, base)
	} else {
		s.bufferCellEntries(pairs, base)
	}
	s.addVolumes(len(pairs), out, in, pay)
	s.mu.Unlock()
	return a.commit(s.kv)
}

// recordArena is the scratch of one WritePairs call: the batch's records
// back to back in recs, where each ends (ends), and the key and value of
// every block the batch completed back to back in blocks, where each ends
// (blockEnds). It is pooled, not kept per store, so the stores of one node
// share their scratch; PutBatch copies what it keeps, so the arena is free
// again once it returns.
type recordArena struct {
	recs      []byte
	ends      []int
	blocks    []byte
	blockEnds []int
	kvs       []kvstore.KV
}

var recordArenas = sync.Pool{New: func() any { return new(recordArena) }}

func (a *recordArena) reset() {
	a.recs, a.ends, a.blocks, a.blockEnds, a.kvs = a.recs[:0], a.ends[:0], a.blocks[:0], a.blockEnds[:0], a.kvs[:0]
}

// record returns the arena's i'th record.
func (a *recordArena) record(i int) []byte {
	from := 0
	if i > 0 {
		from = a.ends[i-1]
	}
	return a.recs[from:a.ends[i]]
}

// addBlock appends the key and value of one block.
func (a *recordArena) addBlock(b uint64, st *blockStage) {
	a.blocks = appendBlockKey(a.blocks, b)
	a.blockEnds = append(a.blockEnds, len(a.blocks))
	a.blocks = st.appendTo(a.blocks)
	a.blockEnds = append(a.blockEnds, len(a.blocks))
}

// commit writes the arena's blocks with one PutBatch. The batch slices the
// arena only now that it is final: an append may have moved it.
func (a *recordArena) commit(kv kvstore.Store) error {
	if len(a.blockEnds) == 0 {
		return nil
	}
	from := 0
	for i := 0; i < len(a.blockEnds); i += 2 {
		k, v := a.blockEnds[i], a.blockEnds[i+1]
		a.kvs = append(a.kvs, kvstore.KV{Key: a.blocks[from:k:k], Val: a.blocks[k:v:v]})
		from = v
	}
	return kv.PutBatch(a.kvs)
}

// stageRecords places the arena's records, those of ids base, base+1, ...,
// in the stage of their block, and moves each block that then holds all
// its ids into the arena to be written. Ids are assigned in order and each
// gets its record, so blocks complete in id order and the stage holds at
// most the last, partial block between batches. The caller holds mu.
func (s *Store) stageRecords(a *recordArena, base uint64) {
	if s.stage == nil {
		s.stage = new(blockStage)
	}
	for i := range a.ends {
		id := base + uint64(i)
		s.stage.add(a.record(i))
		if s.stage.full() {
			a.addBlock(id/blockIDs, s.stage)
			s.stage.reset()
		}
	}
}

// putPartialBlock writes the staged block, the one holding the last
// assigned id, if any record waits in it. The stage stays, so a Flush that
// fails later writes the same block again. The caller holds mu.
func (s *Store) putPartialBlock() error {
	if s.stage == nil || s.stage.n == 0 {
		return nil
	}
	var a recordArena
	a.addBlock((s.nextPair.Load()-1)/blockIDs, s.stage)
	return a.commit(s.kv)
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

// build bulk-loads the items in the order they were added, which is id
// order both for a written store and for rebuildMeta's log-order scan: a
// store has one writer, and its blocks are written in id order. (Writers
// racing on one store could commit blocks out of id order; a rebuilt tree
// would then differ in shape from the flushed one, not in its answers.)
func (b *slotBoxes) build(rank int) *rtree.Tree {
	return rtree.BulkLoadBoxes(rank, b.boxes, b.ids)
}

// bufferBoxes appends one batch's index items (Many encodings) to the
// pending boxes, one per pair and key-side slot; pair i has id base+i. The
// caller holds mu.
func (s *Store) bufferBoxes(pairs []RegionPair, base uint64) {
	for i := range pairs {
		rp, id := &pairs[i], base+uint64(i)
		if s.strat.Orient == BackwardOpt {
			s.pendingBoxes[0].add(s.outSpace, rp.Out, id)
			continue
		}
		for j, in := range rp.Ins {
			s.pendingBoxes[j].add(s.inSpaces[j], in, id)
		}
	}
}

// buildTrees bulk-loads every slot's tree from its pending boxes. The
// boxes stay, so a Flush that fails later builds the same trees again.
func (s *Store) buildTrees() {
	for i := range s.trees {
		s.trees[i] = s.pendingBoxes[i].build(s.slotSpace(i).Rank())
	}
}

// cellRef is one buffered per-cell entry: a cell of the slot's key side
// and the pair id, or payload index, its entry lists.
type cellRef struct{ cell, ref uint64 }

// bufferCellEntries appends one batch's per-cell references (FullOne ids,
// pair i's being base+i; PayOne payload duplicates) to the pending
// buffers. The caller holds mu.
func (s *Store) bufferCellEntries(pairs []RegionPair, base uint64) {
	records := s.storesRecords()
	for i := range pairs {
		rp, id := &pairs[i], base+uint64(i)
		switch {
		case !records:
			// PayOne stores no records, so its pairs have no ids: the
			// payload is duplicated under every output cell.
			ref := s.pendingPay.add(rp.Payload)
			for _, c := range rp.Out {
				s.pending[0] = append(s.pending[0], cellRef{c, ref})
			}
		case s.strat.Orient == BackwardOpt:
			for _, c := range rp.Out {
				s.pending[0] = append(s.pending[0], cellRef{c, id})
			}
		default:
			for j, in := range rp.Ins {
				for _, c := range in {
					s.pending[j] = append(s.pending[j], cellRef{c, id})
				}
			}
		}
	}
}

// putTiles writes the buffered per-cell entries to the hashtable, one value
// per touched (slot, tile). Each slot's buffer is sorted once
// (sortCellRefs), by cell and then by pair id or payload bytes, so a cell's
// references form one run, its list is sorted, and a tile's runs are
// consecutive. Keys and values are encoded into two arenas and written, in
// slot and tile order, by one PutBatch group commit. Every tile is written
// whole and nothing is read back, so a retry after a failed batch writes
// the same values again. The caller holds mu.
func (s *Store) putTiles() error {
	n, total := 0, 0
	var pay *payArena
	if !s.storesRecords() {
		pay = &s.pendingPay
	}
	for _, refs := range s.pending {
		sortCellRefs(refs, pay)
		for i := range refs {
			if i == 0 || refs[i].cell/binenc.TileCells != refs[i-1].cell/binenc.TileCells {
				n++
			}
		}
		total += len(refs)
	}
	if n == 0 {
		return nil
	}
	keyArena := make([]byte, 0, tileKeyLen*n)
	// The value arena is sized for two-byte ids; append grows it past that.
	enc := tileEncoder{pay: pay, vals: make([]byte, 0, 8*n+4*total)}
	ends := make([]int, 0, n)
	for slot, refs := range s.pending {
		for lo := 0; lo < len(refs); {
			tile := refs[lo].cell / binenc.TileCells
			hi := lo + 1
			for hi < len(refs) && refs[hi].cell/binenc.TileCells == tile {
				hi++
			}
			keyArena = appendTileKey(keyArena, slot, tile)
			enc.add(refs[lo:hi])
			ends = append(ends, len(enc.vals))
			lo = hi
		}
	}
	batch := make([]kvstore.KV, n)
	from := 0
	for i, end := range ends {
		key := keyArena[tileKeyLen*i : tileKeyLen*(i+1) : tileKeyLen*(i+1)]
		batch[i] = kvstore.KV{Key: key, Val: enc.vals[from:end:end]}
		from = end
	}
	return s.kv.PutBatch(batch)
}

// sortCellRefs sorts refs by cell, then by ref with pay nil, or by the
// payload bytes pay holds at ref otherwise. refs must be in ref order, as
// every buffer a store writes is: ids are assigned in order under mu, and
// payload indexes are appended in order. It is an LSD byte radix sort on
// the cell — one counting pass per byte that varies across refs — whose
// passes are stable, so each cell's refs keep their order. A payload store
// then sorts each run of references to one cell by payload bytes. The
// second buffer the passes need is allocated here, so it is garbage once
// the Flush that sorts returns rather than held for the life of the store
// or process.
func sortCellRefs(refs []cellRef, pay *payArena) {
	if len(refs) == 0 {
		return
	}
	var cellBits uint64
	for _, r := range refs {
		cellBits |= r.cell ^ refs[0].cell
	}
	src, dst := refs, make([]cellRef, len(refs))
	for shift := 0; shift < 64; shift += 8 {
		if byte(cellBits>>shift) != 0 {
			radixPass(src, dst, shift)
			src, dst = dst, src
		}
	}
	if &src[0] != &refs[0] {
		copy(refs, src)
	}
	if pay == nil {
		return
	}
	for lo := 0; lo < len(refs); {
		hi := lo + 1
		for hi < len(refs) && refs[hi].cell == refs[lo].cell {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(refs[lo:hi], func(a, b cellRef) int {
				return bytes.Compare(pay.at(a.ref), pay.at(b.ref))
			})
		}
		lo = hi
	}
}

// radixPass stably scatters src into dst by one byte of each cellRef's
// cell.
func radixPass(src, dst []cellRef, shift int) {
	var count [256]int
	for _, r := range src {
		count[byte(r.cell>>shift)]++
	}
	sum := 0
	for b, c := range count {
		count[b], sum = sum, sum+c
	}
	for _, r := range src {
		b := byte(r.cell >> shift)
		dst[count[b]] = r
		count[b]++
	}
}

// payArena holds a payload store's buffered payloads back to back:
// payload i is buf[ends[i-1]:ends[i]].
type payArena struct {
	buf  []byte
	ends []int
}

// add copies p into the arena and returns its index.
func (a *payArena) add(p []byte) uint64 {
	a.buf = append(a.buf, p...)
	a.ends = append(a.ends, len(a.buf))
	return uint64(len(a.ends) - 1)
}

// at returns payload i.
func (a *payArena) at(i uint64) []byte {
	from := 0
	if i > 0 {
		from = a.ends[i-1]
	}
	return a.buf[from:a.ends[i]:a.ends[i]]
}

// tileEncoder appends the values of one flush's tiles to one arena,
// reusing its scratch across tiles. pay is the store's pendingPay: nil for
// id stores.
type tileEncoder struct {
	pay  *payArena
	vals []byte

	// One tile's cells, entry starts and entries, and one cell's list.
	locals  []uint64
	starts  []int
	entries []byte
	ids     []uint64
	pays    [][]byte
}

// add appends the tile value for one tile's sorted run of references.
func (e *tileEncoder) add(refs []cellRef) {
	e.locals, e.starts, e.entries = e.locals[:0], e.starts[:0], e.entries[:0]
	for lo := 0; lo < len(refs); {
		hi := lo + 1
		for hi < len(refs) && refs[hi].cell == refs[lo].cell {
			hi++
		}
		from := len(e.entries)
		e.addCell(refs[lo:hi])
		e.commit(refs[lo].cell%binenc.TileCells, from)
		lo = hi
	}
	e.vals = appendTileValue(e.vals, e.locals, e.starts, e.entries)
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

// addCell appends one cell's entry for its sorted run of references.
func (e *tileEncoder) addCell(run []cellRef) {
	if e.pay != nil {
		e.pays = e.pays[:0]
		for _, r := range run {
			e.pays = append(e.pays, e.pay.at(r.ref))
		}
		e.entries = appendPayloadEntry(e.entries, e.pays)
		return
	}
	e.ids = e.ids[:0]
	for _, r := range run {
		e.ids = append(e.ids, r.ref)
	}
	e.entries = appendIDEntry(e.entries, e.ids)
}

// Flush seals the store. It writes the staged record blocks and the
// buffered cell entries and bulk-loads the indexes, then syncs the hashtable and commits the pair
// counter, stats, and serialized indexes as one all-or-nothing blob, so a
// crash mid-flush leaves a store that reopens holding what was written or
// a subset of it, never one that half-loads. A store takes one Flush: later calls are no-ops. A Flush that
// fails leaves the store unsealed with its buffers intact, and a retry
// writes every tile again whole. SizeBytes is exact after Flush.
func (s *Store) Flush() error {
	if s.stale {
		return s.corruptf(errStaleLayout)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed.Load() {
		return nil
	}
	// Records first: no cell entry may reference a record the hashtable
	// does not hold.
	if err := s.putPartialBlock(); err != nil {
		return err
	}
	if err := s.putTiles(); err != nil {
		return err
	}
	s.buildTrees()
	// Data first, then the meta blob: metadata must never describe
	// records the log has not durably absorbed.
	if err := s.kv.Sync(); err != nil {
		return err
	}
	if err := s.kv.CommitMeta(s.encodeMetaBlob()); err != nil {
		return err
	}
	s.pending, s.pendingPay, s.pendingBoxes = nil, payArena{}, nil
	s.stage = nil
	s.sealed.Store(true)
	return nil
}

// encodeStats serializes the write statistics for the meta blob. Flush
// calls it holding mu, so it must not go through Stats.
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
	st := StoreStats{
		Pairs:        int(vals[0]),
		OutCells:     int64(vals[1]),
		InCells:      int64(vals[2]),
		PayloadBytes: int64(vals[3]),
		WriteTime:    time.Duration(binary.LittleEndian.Uint64(val[off:])),
		FlushTime:    time.Duration(binary.LittleEndian.Uint64(val[off+8:])),
	}
	s.stats = st
	s.writeNS.Store(int64(st.WriteTime))
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

// SizeBytes returns the storage charged to this store: the hashtable size,
// whose meta blob holds the encoded indexes, plus the indexes of a store
// rebuilt without one. Cell entries and indexes reach the hashtable only
// at Flush, so the size is exact once the store is sealed.
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
