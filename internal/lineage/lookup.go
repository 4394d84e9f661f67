package lineage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"subzero/internal/binenc"
	"subzero/internal/bitmap"
	"subzero/internal/fault"
	"subzero/internal/grid"
	"subzero/internal/obs"
	"subzero/internal/rtree"
	"subzero/internal/trace"
)

// The lookup hot path is span-oriented end to end: query bitmaps are
// walked as runs, hashtable probes are grouped into batches served under
// one kvstore lock, and records replay word-parallel into the destination
// bitmap without a per-cell slice.
//
// Many-encoding lookups (candidateIDs) walk the slot's R-tree once per
// query: every node and item box is clipped to the query's bounding box,
// computed once, and tested against the query bitmap one row per
// word-parallel AnyInRange. Each pair has one item per slot tree, so the
// walk yields every candidate pair id once, in tree order, into the
// pooled id scratch; no map and no per-rectangle window search.
//
// One-encoding lookups read one hashtable value per 1024-cell tile the
// query touches, not one per query cell: the query bitmap is walked block
// by block (bitmap.NextBlock), the blocks are batched until they hold
// probeBatchSize query cells, and one GetBatch fetches the batch's tiles.
// Each tile's cell set expands into a 16-word block that is ANDed with the
// query's block, and each hit reaches its entry through the tile's end
// offsets by popcount rank (probeTiles, cellTile).
//
// FullOne lookups (both directions, lookupFullOne) touch thousands of
// records per query and decode none they do not keep: each batch collects
// the pair ids of its hits, dedups them against a per-lookup bitset,
// serves the ids the record cache holds under one recMu acquisition, and
// fetches the rest with one GetBatch. A fetched record is decoded only
// while the cache has room to admit it; otherwise it is validated whole
// from its bytes and only then is the one side the query needs ORed into
// dst. Per-lookup buffers and callbacks live in a sync.Pool, so a steady
// query load allocates almost nothing.

// probeBatchSize is how many query cells one batch of tile probes covers at
// least (its last tile may take it past), one kvstore GetBatch call per
// batch. It is also the abort-poll granularity of the One-encoding paths.
const probeBatchSize = 256

// lookupScratch holds the reusable buffers of one in-flight lookup and,
// for lookupFullOne and candidateIDs, their state. The callbacks it hands
// to kvstore are method values bound once when the scratch is made: a
// func passed through the kvstore.Store interface escapes, so binding it
// per call would allocate.
type lookupScratch struct {
	// One batch of tile probes: the tiles, the query's block for each, and
	// the query cells the blocks hold. tile is the parse scratch, and hit
	// is called with every query cell a fetched tile holds and its entry.
	tiles  []uint64
	qblks  [][bitmap.BlockWords]uint64
	qcells int
	tile   cellTile
	hit    func(cell uint64, entry []byte) bool
	found  bool // ContainsOut's answer

	keyBuf []byte   // arena backing the probe keys
	keys   [][]byte // per-batch probe keys, slices of keyBuf
	ids    []uint64 // pair ids one batch's cell entries reference, or a Many lookup's candidates

	// candidateIDs state, beside abort and err below: the query, its
	// bounding box, the box under test clipped to it, and the boxes tested
	// since the walk began.
	q            *bitmap.Bitmap
	qlo, qhi     grid.Coord
	boxLo, boxHi grid.Coord
	tested       int

	// lookupFullOne state. done is a bitset over the dense pair ids
	// [0, nextPair) applied this lookup and replayed lists them in order
	// (release clears their words; an id past the bitset — only a
	// crash-recovered store holds one — is never marked, so at worst it
	// applies twice). hits and misses split one batch's new ids by cache
	// presence; decoded holds the misses decoded for admission.
	done     []uint64
	replayed []uint64
	hits     []*record
	misses   []uint64
	decoded  []cachedRecord
	room     int // misses the cache can still admit
	st       *Store
	sp       *trace.Span
	dst      *bitmap.Bitmap
	slot     int
	side     int // outSide or an input index
	abort    func() bool
	err      error

	tileFn   func(int, []byte, bool) bool // sc.onTile
	recordFn func(int, []byte, bool) bool // sc.onRecord
	idHitFn  func(uint64, []byte) bool    // sc.onIDHit
	foundFn  func(uint64, []byte) bool    // sc.onFound
}

// cachedRecord is a record decoded by a lookup, awaiting cache admission.
type cachedRecord struct {
	id  uint64
	rec *record
}

var scratchPool = sync.Pool{
	New: func() any {
		sc := new(lookupScratch)
		sc.tileFn, sc.recordFn = sc.onTile, sc.onRecord
		sc.idHitFn, sc.foundFn = sc.onIDHit, sc.onFound
		return sc
	},
}

func getScratch() *lookupScratch { return scratchPool.Get().(*lookupScratch) }

func (sc *lookupScratch) release() {
	sc.tiles, sc.qblks, sc.qcells = sc.tiles[:0], sc.qblks[:0], 0
	for _, id := range sc.replayed {
		if w := id / 64; w < uint64(len(sc.done)) {
			sc.done[w] = 0
		}
	}
	sc.replayed = sc.replayed[:0]
	// A lookup that panicked mid-batch (the deferred release still runs)
	// leaves its batch here; the next lookup must not fetch its misses.
	clear(sc.hits)
	clear(sc.decoded)
	sc.hits, sc.misses, sc.decoded = sc.hits[:0], sc.misses[:0], sc.decoded[:0]
	sc.st, sc.sp, sc.dst, sc.q, sc.abort, sc.err, sc.hit = nil, nil, nil, nil, nil, nil, nil
	scratchPool.Put(sc)
}

// forEachTileBatch walks q block by block, batching each non-empty tile
// with the query's block for it, and invokes process once the batch holds
// probeBatchSize query cells, plus once for a final partial batch. process
// consumes the batch (probeTiles empties it); a false return stops the
// walk.
func (sc *lookupScratch) forEachTileBatch(q *bitmap.Bitmap, process func() bool) {
	var blk [bitmap.BlockWords]uint64
	for base, ok := q.NextBlock(0, &blk); ok; base, ok = q.NextBlock(base+binenc.TileCells, &blk) {
		sc.tiles = append(sc.tiles, base/binenc.TileCells)
		sc.qblks = append(sc.qblks, blk)
		for _, w := range blk {
			sc.qcells += bits.OnesCount64(w)
		}
		if sc.qcells >= probeBatchSize && !process() {
			return
		}
	}
	if len(sc.tiles) > 0 {
		process()
	}
}

// probeTiles fetches the batched tiles of slot with one GetBatch, calls
// sc.hit with every batched query cell a tile holds and that cell's entry,
// and empties the batch. It reports whether the lookup may go on.
func (sc *lookupScratch) probeTiles(slot int) bool {
	sc.keyBuf, sc.keys = sc.keyBuf[:0], sc.keys[:0]
	for _, tile := range sc.tiles {
		off := len(sc.keyBuf)
		sc.keyBuf = appendTileKey(sc.keyBuf, slot, tile)
		sc.keys = append(sc.keys, sc.keyBuf[off:len(sc.keyBuf):len(sc.keyBuf)])
	}
	ok := sc.getBatch(sc.tileFn)
	sc.tiles, sc.qblks, sc.qcells = sc.tiles[:0], sc.qblks[:0], 0
	return ok
}

// onTile parses the fetched tile of sc.tiles[i] and hands each query cell
// it holds to sc.hit, in cell order, until sc.hit returns false.
func (sc *lookupScratch) onTile(i int, val []byte, ok bool) bool {
	if !ok {
		return true
	}
	t := &sc.tile
	if err := t.parse(val); err != nil {
		sc.err = sc.st.corruptf(err)
		return false
	}
	// rank counts the tile's cells before word w: a hit's entry index is
	// rank plus the popcount of its word below it.
	base, q, rank := sc.tiles[i]*binenc.TileCells, &sc.qblks[i], 0
	for w, cells := range t.blk {
		for hits := q[w] & cells; hits != 0; hits &= hits - 1 {
			b := bits.TrailingZeros64(hits)
			entry, err := t.entry(rank + bits.OnesCount64(cells&(uint64(1)<<b-1)))
			if err != nil {
				sc.err = sc.st.corruptf(err)
				return false
			}
			if !sc.hit(base+uint64(w*64+b), entry) {
				return false
			}
		}
		rank += bits.OnesCount64(cells)
	}
	return true
}

// Backward resolves the backward lineage of the query cells q (a bitmap
// over the operator's output space) into input inputIdx, OR-ing the result
// into dst (a bitmap over that input's space).
//
// mapp is the operator's payload mapping function; it is required for Pay
// and Comp stores and ignored otherwise. If covered is non-nil, every
// query cell answered by a stored (payload) pair is marked in it — the
// query executor uses this to apply the composite default mapping to the
// remaining cells. abort, if non-nil, is polled periodically; returning
// true cancels the lookup with ErrAborted (the query-time optimizer's
// dynamic fallback hook). mapp and abort run with the store's gate held
// shared and must not call back into the store (see Store).
func (s *Store) Backward(q, dst *bitmap.Bitmap, inputIdx int, mapp PayloadFn, covered *bitmap.Bitmap, abort func() bool) error {
	return s.BackwardSpan(nil, q, dst, inputIdx, mapp, covered, abort)
}

// BackwardSpan is Backward under a trace span: kvstore probe batches on
// the One-encoding paths become child spans of sp. A nil sp (the
// sampled-off path) adds nothing.
func (s *Store) BackwardSpan(sp *trace.Span, q, dst *bitmap.Bitmap, inputIdx int, mapp PayloadFn, covered *bitmap.Bitmap, abort func() bool) error {
	if inputIdx < 0 || inputIdx >= len(s.inSpaces) {
		return fmt.Errorf("lineage: input index %d out of range (%d inputs)", inputIdx, len(s.inSpaces))
	}
	if (s.strat.Mode == Pay || s.strat.Mode == Comp) && mapp == nil {
		return fmt.Errorf("lineage: %s store requires a payload mapping function", s.strat)
	}
	if err := s.beginRead(); err != nil {
		return err
	}
	defer s.gate.RUnlock()
	if s.strat.Orient == ForwardOpt {
		// Mismatched orientation: fall back to a full scan of records.
		return s.scanBackward(q, dst, inputIdx, abort)
	}
	switch {
	case s.strat.Enc == One && s.strat.Mode == Full:
		return s.lookupFullOne(sp, q, dst, 0, inputIdx, abort)
	case s.strat.Enc == Many && s.strat.Mode == Full:
		return s.backwardFullMany(q, dst, inputIdx, abort)
	case s.strat.Enc == One:
		return s.backwardPayOne(sp, q, dst, inputIdx, mapp, covered, abort)
	default:
		return s.backwardPayMany(q, dst, inputIdx, mapp, covered, abort)
	}
}

// lookupFullOne serves both directions of the FullOne encodings: probe the
// slot's cell entries tile batch by tile batch and apply the side of each
// distinct referenced pair record into dst exactly once (records repeat
// under fanout, so the dedup both saves fetches and skips redundant bitmap
// writes). See the file comment for the per-batch steps.
func (s *Store) lookupFullOne(sp *trace.Span, q, dst *bitmap.Bitmap, slot, side int, abort func() bool) error {
	sc := getScratch()
	defer sc.release()
	sc.st, sc.sp, sc.dst, sc.slot, sc.side, sc.abort = s, sp, dst, slot, side, abort
	if n := (s.nextPair.Load() + 63) / 64; n <= uint64(cap(sc.done)) {
		sc.done = sc.done[:n] // release left every word zero
	} else {
		sc.done = make([]uint64, n)
	}
	sc.hit = sc.idHitFn
	sc.forEachTileBatch(q, sc.fullOneBatch)
	return sc.err
}

// fullOneBatch resolves one batch of query tiles for lookupFullOne.
func (sc *lookupScratch) fullOneBatch() bool {
	if aborted(sc.abort) {
		sc.err = ErrAborted
		return false
	}
	s := sc.st
	// Probe the batch's tiles; onIDHit gathers the hits' ids.
	sc.ids = sc.ids[:0]
	if !sc.probeTiles(sc.slot) {
		return false
	}

	// Keep the ids no earlier batch applied, then serve the cached ones.
	from := len(sc.replayed)
	for _, id := range sc.ids {
		if w := id / 64; w < uint64(len(sc.done)) {
			bit := uint64(1) << (id % 64)
			if sc.done[w]&bit != 0 {
				continue
			}
			sc.done[w] |= bit
		}
		sc.replayed = append(sc.replayed, id)
	}
	s.recMu.Lock()
	for _, id := range sc.replayed[from:] {
		if rec, ok := s.recCache[id]; ok {
			sc.hits = append(sc.hits, rec)
		} else {
			sc.misses = append(sc.misses, id)
		}
	}
	sc.room = recCacheLimit - len(s.recCache)
	s.recMu.Unlock()
	for _, rec := range sc.hits {
		rec.side(sc.side).addTo(sc.dst)
	}
	clear(sc.hits)
	sc.hits = sc.hits[:0]
	if len(sc.misses) == 0 {
		return true
	}

	// Fetch the misses with one batch; onRecord applies each one.
	sc.keyBuf, sc.keys = sc.keyBuf[:0], sc.keys[:0]
	for _, id := range sc.misses {
		if err := fault.Inject(fpDecode); err != nil {
			sc.err = s.corruptf(err)
			break
		}
		off := len(sc.keyBuf)
		sc.keyBuf = append(sc.keyBuf, keyPair)
		sc.keyBuf = binary.AppendUvarint(sc.keyBuf, id)
		sc.keys = append(sc.keys, sc.keyBuf[off:len(sc.keyBuf):len(sc.keyBuf)])
	}
	ok := sc.err == nil && sc.getBatch(sc.recordFn)
	sc.misses = sc.misses[:0]
	// Admission waits until the batch is over: recMu is never taken
	// inside a kvstore callback.
	if len(sc.decoded) > 0 {
		s.recMu.Lock()
		for _, d := range sc.decoded {
			s.admitLocked(d.id, d.rec)
		}
		s.recMu.Unlock()
		clear(sc.decoded)
		sc.decoded = sc.decoded[:0]
	}
	return ok
}

// getBatch runs one kvstore batch over sc.keys under a probe span,
// reporting whether the lookup may go on.
func (sc *lookupScratch) getBatch(fn func(int, []byte, bool) bool) bool {
	ksp := sc.sp.Child("kvstore.GetBatch", obs.SpanKVProbe)
	ksp.SetAttrInt("keys", int64(len(sc.keys)))
	err := sc.st.kv.GetBatch(sc.keys, fn)
	ksp.End()
	if err != nil && sc.err == nil {
		sc.err = err
	}
	return sc.err == nil
}

// onIDHit appends one cell entry's pair ids to sc.ids.
func (sc *lookupScratch) onIDHit(_ uint64, entry []byte) bool {
	var err error
	if sc.ids, err = appendIDList(sc.ids, entry); err != nil {
		sc.err = sc.st.corruptf(err)
		return false
	}
	return true
}

// onFound records that ContainsOut's cell holds an entry.
func (sc *lookupScratch) onFound(uint64, []byte) bool {
	sc.found = true
	return false
}

// onRecord applies the fetched record of sc.misses[i]: decoded, if the
// cache has room to admit it afterwards, else replayed from its bytes.
// Either way the whole record validates before any cell reaches dst.
func (sc *lookupScratch) onRecord(i int, val []byte, ok bool) bool {
	s, id := sc.st, sc.misses[i]
	if !ok {
		sc.err = s.danglingf(id)
		return false
	}
	if sc.room <= 0 {
		sc.err = s.replayRecord(val, sc.side, sc.dst)
		return sc.err == nil
	}
	rec, err := s.loadRecord(val)
	if err != nil {
		sc.err = err
		return false
	}
	sc.room--
	sc.decoded = append(sc.decoded, cachedRecord{id, rec})
	rec.side(sc.side).addTo(sc.dst)
	return true
}

// forEachCandidate calls fn with the record of every pair whose key-side
// bounding box in slot's index holds a cell of q, once each, polling abort
// between records as candidateIDs does between boxes.
func (s *Store) forEachCandidate(q *bitmap.Bitmap, slot int, abort func() bool, fn func(*record)) error {
	sc := getScratch()
	defer sc.release()
	if err := sc.candidateIDs(s.trees[slot], q, abort); err != nil {
		return err
	}
	for i, id := range sc.ids {
		if (i+1)%abortCheckInterval == 0 && aborted(abort) {
			return ErrAborted
		}
		rec, err := s.getRecord(id)
		if err != nil {
			return err
		}
		fn(rec)
	}
	return nil
}

// candidateIDs fills sc.ids with the id of every item of tr whose box
// holds a cell of q, in one walk of the tree (see the file comment). The
// abort hook is polled once before the walk and then every
// abortCheckInterval tested boxes.
func (sc *lookupScratch) candidateIDs(tr *rtree.Tree, q *bitmap.Bitmap, abort func() bool) error {
	sc.ids = sc.ids[:0]
	if aborted(abort) {
		return ErrAborted
	}
	rank := q.Space().Rank()
	sc.qlo, sc.qhi = resize(sc.qlo, rank), resize(sc.qhi, rank)
	sc.boxLo, sc.boxHi = resize(sc.boxLo, rank), resize(sc.boxHi, rank)
	if !q.Bounds(sc.qlo, sc.qhi) {
		return nil
	}
	sc.q, sc.abort, sc.tested = q, abort, 0
	tr.Walk(sc.keepBox, sc.addCandidate)
	return sc.err
}

// keepBox is candidateIDs' Walk predicate: does the box, clipped to the
// query's bounding box, hold a query cell? Once the lookup is aborted it
// keeps nothing, so the walk unwinds without descending.
func (sc *lookupScratch) keepBox(lo, hi []int) bool {
	if sc.err != nil {
		return false
	}
	if sc.tested++; sc.tested%abortCheckInterval == 0 && aborted(sc.abort) {
		sc.err = ErrAborted
		return false
	}
	// Slicing everything to one length lets the compiler drop the bounds
	// checks in the loop, which runs for every box of every Many lookup.
	n := len(lo)
	hi, qlo, qhi, boxLo, boxHi := hi[:n], sc.qlo[:n], sc.qhi[:n], sc.boxLo[:n], sc.boxHi[:n]
	for d := range n {
		boxLo[d], boxHi[d] = max(lo[d], qlo[d]), min(hi[d], qhi[d])
		if boxLo[d] > boxHi[d] {
			return false
		}
	}
	return sc.q.IntersectsRect(grid.Rect{Lo: boxLo, Hi: boxHi})
}

// addCandidate is candidateIDs' Walk visitor.
func (sc *lookupScratch) addCandidate(id uint64, _, _ []int) bool {
	sc.ids = append(sc.ids, id)
	return true
}

func (s *Store) backwardFullMany(q, dst *bitmap.Bitmap, inputIdx int, abort func() bool) error {
	return s.forEachCandidate(q, 0, abort, func(rec *record) {
		if rec.outs.intersects(q) {
			rec.ins[inputIdx].addTo(dst)
		}
	})
}

func (s *Store) backwardPayOne(sp *trace.Span, q, dst *bitmap.Bitmap, inputIdx int, mapp PayloadFn, covered *bitmap.Bitmap, abort func() bool) error {
	sc := getScratch()
	defer sc.release()
	sc.st, sc.sp = s, sp
	var buf []uint64
	n := 0
	sc.hit = func(cell uint64, entry []byte) bool {
		// map_p dominates this path, so the abort hook is polled at
		// per-cell granularity inside the batch as well.
		if n++; n%abortCheckInterval == 0 && aborted(abort) {
			sc.err = ErrAborted
			return false
		}
		if err := forEachPayload(entry, func(p []byte) error {
			buf = mapp(cell, p, inputIdx, buf[:0])
			dst.SetCells(buf)
			return nil
		}); err != nil {
			sc.err = s.corruptf(err)
			return false
		}
		if covered != nil {
			covered.Set(cell)
		}
		return true
	}
	sc.forEachTileBatch(q, func() bool {
		if aborted(abort) {
			sc.err = ErrAborted
			return false
		}
		return sc.probeTiles(0)
	})
	return sc.err
}

func (s *Store) backwardPayMany(q, dst *bitmap.Bitmap, inputIdx int, mapp PayloadFn, covered *bitmap.Bitmap, abort func() bool) error {
	var buf []uint64
	return s.forEachCandidate(q, 0, abort, func(rec *record) {
		rec.outs.forEach(func(out uint64) bool {
			if !q.Get(out) {
				return true
			}
			buf = mapp(out, rec.payload, inputIdx, buf[:0])
			dst.SetCells(buf)
			if covered != nil {
				covered.Set(out)
			}
			return true
		})
	})
}

// scanBackward answers a backward query against a forward-optimized store
// by scanning every record — the mismatched-index pathology of Figure 6(b).
func (s *Store) scanBackward(q, dst *bitmap.Bitmap, inputIdx int, abort func() bool) error {
	n := 0
	return s.scanRecords(func(id uint64, rec *record) (bool, error) {
		if n++; n%abortCheckInterval == 0 && aborted(abort) {
			return false, ErrAborted
		}
		if rec.outs.intersects(q) {
			rec.ins[inputIdx].addTo(dst)
		}
		return true, nil
	})
}

// Forward resolves the forward lineage of the query cells q (a bitmap over
// input inputIdx's space) into dst (a bitmap over the output space).
//
// Payload stores are never forward-optimized: the paper's forward query
// over payload lineage "must iterate through each (outcells, payload) pair
// and compute the input cells using map_p before it can be compared to the
// query coordinates" — that scan is implemented here.
func (s *Store) Forward(q, dst *bitmap.Bitmap, inputIdx int, mapp PayloadFn, abort func() bool) error {
	return s.ForwardSpan(nil, q, dst, inputIdx, mapp, abort)
}

// ForwardSpan is Forward under a trace span; see BackwardSpan.
func (s *Store) ForwardSpan(sp *trace.Span, q, dst *bitmap.Bitmap, inputIdx int, mapp PayloadFn, abort func() bool) error {
	if inputIdx < 0 || inputIdx >= len(s.inSpaces) {
		return fmt.Errorf("lineage: input index %d out of range (%d inputs)", inputIdx, len(s.inSpaces))
	}
	if (s.strat.Mode == Pay || s.strat.Mode == Comp) && mapp == nil {
		return fmt.Errorf("lineage: %s store requires a payload mapping function", s.strat)
	}
	if err := s.beginRead(); err != nil {
		return err
	}
	defer s.gate.RUnlock()
	switch {
	case s.strat.Mode == Pay || s.strat.Mode == Comp:
		if s.strat.Enc == One {
			return s.forwardPayOneScan(q, dst, inputIdx, mapp, abort)
		}
		return s.forwardPayManyScan(q, dst, inputIdx, mapp, abort)
	case s.strat.Orient == BackwardOpt:
		// Mismatched orientation for full lineage: scan records.
		n := 0
		return s.scanRecords(func(id uint64, rec *record) (bool, error) {
			if n++; n%abortCheckInterval == 0 && aborted(abort) {
				return false, ErrAborted
			}
			if rec.ins[inputIdx].intersects(q) {
				rec.outs.addTo(dst)
			}
			return true, nil
		})
	case s.strat.Enc == One:
		return s.lookupFullOne(sp, q, dst, inputIdx, outSide, abort)
	default:
		return s.forwardFullMany(q, dst, inputIdx, abort)
	}
}

func (s *Store) forwardFullMany(q, dst *bitmap.Bitmap, inputIdx int, abort func() bool) error {
	return s.forEachCandidate(q, inputIdx, abort, func(rec *record) {
		if rec.ins[inputIdx].intersects(q) {
			rec.outs.addTo(dst)
		}
	})
}

// errPayloadHit stops a payload scan early once the current cell is
// established in the result.
var errPayloadHit = errors.New("lineage: payload scan hit")

func (s *Store) forwardPayOneScan(q, dst *bitmap.Bitmap, inputIdx int, mapp PayloadFn, abort func() bool) error {
	var buf []uint64
	n := 0
	return s.scanCellEntries(0, func(cell uint64, val []byte) (bool, error) {
		if n++; n%abortCheckInterval == 0 && aborted(abort) {
			return false, ErrAborted
		}
		if dst.Get(cell) {
			return true, nil // already established
		}
		err := forEachPayload(val, func(p []byte) error {
			buf = mapp(cell, p, inputIdx, buf[:0])
			if intersectsBitmap(buf, q) {
				dst.Set(cell)
				return errPayloadHit
			}
			return nil
		})
		if err != nil && !errors.Is(err, errPayloadHit) {
			return false, s.corruptf(err)
		}
		return true, nil
	})
}

func (s *Store) forwardPayManyScan(q, dst *bitmap.Bitmap, inputIdx int, mapp PayloadFn, abort func() bool) error {
	var buf []uint64
	n := 0
	return s.scanRecords(func(id uint64, rec *record) (bool, error) {
		if n++; n%abortCheckInterval == 0 && aborted(abort) {
			return false, ErrAborted
		}
		rec.outs.forEach(func(out uint64) bool {
			if dst.Get(out) {
				return true
			}
			buf = mapp(out, rec.payload, inputIdx, buf[:0])
			if intersectsBitmap(buf, q) {
				dst.Set(out)
			}
			return true
		})
		return true, nil
	})
}

// ContainsOut reports whether an output cell is covered by any stored
// (payload) pair. The query executor uses it to decide which output cells
// of a composite operator keep their default mapping on the forward path.
// On One encodings it probes the cell's tile as a one-cell tile batch: the
// tile value is lent by GetBatch, never copied.
func (s *Store) ContainsOut(cell uint64) (bool, error) {
	if err := s.beginRead(); err != nil {
		return false, err
	}
	defer s.gate.RUnlock()
	sc := getScratch()
	defer sc.release()
	if s.strat.Enc == One {
		var blk [bitmap.BlockWords]uint64
		off := cell % binenc.TileCells
		blk[off/64] = 1 << (off % 64)
		sc.st, sc.hit, sc.found = s, sc.foundFn, false
		sc.tiles, sc.qblks = append(sc.tiles, cell/binenc.TileCells), append(sc.qblks, blk)
		sc.probeTiles(0)
		return sc.found, sc.err
	}
	sc.qlo = resize(sc.qlo, s.outSpace.Rank())
	s.outSpace.UnravelInto(cell, sc.qlo)
	found := false
	var ferr error
	s.trees[0].SearchPoint(sc.qlo, func(it rtree.Item) bool {
		rec, err := s.getRecord(it.ID)
		if err != nil {
			ferr = err
			return false
		}
		if rec.outs.contains(cell) {
			found = true
			return false
		}
		return true
	})
	return found, ferr
}

func aborted(abort func() bool) bool { return abort != nil && abort() }

// resize returns c with length rank, reusing its storage when it can.
func resize(c grid.Coord, rank int) grid.Coord { return slices.Grow(c[:0], rank)[:rank] }

func intersectsBitmap(cells []uint64, b *bitmap.Bitmap) bool {
	for _, c := range cells {
		if b.Get(c) {
			return true
		}
	}
	return false
}
