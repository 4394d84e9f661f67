package lineage

import (
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
// Every record read goes through one batched fetch (fetchMisses): the ids
// the record cache does not hold are sorted, each distinct 64-id block is
// read once with one GetBatch, its directory is walked once, and each
// record is handed over in id order as bytes the kvstore lends. FullOne
// lookups (both directions, lookupFullOne) touch thousands of records per
// query and decode none they do not keep: each batch collects the pair ids
// of its hits, dedups them against a per-lookup bitset, serves the ids the
// record cache holds under one recMu acquisition, and fetches the rest. A
// fetched record is decoded only while the cache has room to admit it;
// otherwise it is validated whole from its bytes and only then is the one
// side the query needs ORed into dst. Many lookups, Many ContainsOut and
// the record scans decode what they fetch (forEachRecord). Per-lookup
// buffers and callbacks live in a sync.Pool, so a steady query load
// allocates almost nothing.

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
	ids    []uint64 // pair ids one batch's cell entries reference, a Many lookup's candidates, or a scan's chunk

	// fetchMisses state: where each fetched block's ids start in misses,
	// the parsed block, what each fetched record is handed to, and whether
	// the ids are a scan's, which skips ids without a record.
	blockFirst []int
	blk        recordBlock
	onMiss     func(id uint64, val []byte) bool
	scan       bool
	applied    int // records forEachRecord has applied, for abort polls

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
	// corrupt cell entry holds one — is never marked, so at worst it
	// applies twice). hits and misses split one batch's new ids by cache
	// presence; decoded holds the misses decoded for admission or, in
	// forEachRecord, for application.
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
	blockFn  func(int, []byte, bool) bool // sc.onBlock
	replayFn func(uint64, []byte) bool    // sc.onReplay
	decodeFn func(uint64, []byte) bool    // sc.onDecode
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
		sc.tileFn, sc.blockFn = sc.onTile, sc.onBlock
		sc.replayFn, sc.decodeFn = sc.onReplay, sc.onDecode
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
	sc.onMiss, sc.scan, sc.applied = nil, false, 0
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
// dynamic fallback hook). mapp and abort must not call back into the store
// (see Store).
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
	if n := (s.nextPair + 63) / 64; n <= uint64(cap(sc.done)) {
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

	// Fetch the misses; onReplay applies each one.
	sc.onMiss = sc.replayFn
	ok := sc.fetchMisses()
	// Admission waits until the batch is over: recMu is never taken
	// inside a kvstore callback.
	sc.admitDecoded()
	return ok
}

// admitDecoded offers the records decoded for admission to the cache and
// empties sc.decoded.
func (sc *lookupScratch) admitDecoded() {
	if len(sc.decoded) == 0 {
		return
	}
	s := sc.st
	s.recMu.Lock()
	for _, d := range sc.decoded {
		s.admitLocked(d.id, d.rec)
	}
	s.recMu.Unlock()
	clear(sc.decoded)
	sc.decoded = sc.decoded[:0]
}

// fetchMisses reads the records of sc.misses with one GetBatch: it sorts
// them by id, reads each distinct block once, walks its directory once
// (onBlock), and hands each miss's record to sc.onMiss in id order. The
// bytes are lent: onMiss must not keep them. An id its block does not hold
// is a dangling one, unless the ids are a scan's. It empties sc.misses and
// reports whether the lookup may go on.
func (sc *lookupScratch) fetchMisses() bool {
	slices.Sort(sc.misses)
	sc.keyBuf, sc.keys, sc.blockFirst = sc.keyBuf[:0], sc.keys[:0], sc.blockFirst[:0]
	for i, id := range sc.misses {
		if err := fault.Inject(fpDecode); err != nil {
			sc.err = sc.st.corruptf(err)
			break
		}
		if i > 0 && id/blockIDs == sc.misses[i-1]/blockIDs {
			continue
		}
		off := len(sc.keyBuf)
		sc.keyBuf = appendBlockKey(sc.keyBuf, id/blockIDs)
		sc.keys = append(sc.keys, sc.keyBuf[off:len(sc.keyBuf):len(sc.keyBuf)])
		sc.blockFirst = append(sc.blockFirst, i)
	}
	ok := sc.err == nil && sc.getBatch(sc.blockFn)
	sc.misses = sc.misses[:0]
	return ok
}

// onBlock parses the fetched block of the i'th run of sc.misses and hands
// each of the run's records to sc.onMiss.
func (sc *lookupScratch) onBlock(i int, val []byte, ok bool) bool {
	s, run := sc.st, sc.misses[sc.blockFirst[i]:]
	if i+1 < len(sc.blockFirst) {
		run = sc.misses[sc.blockFirst[i]:sc.blockFirst[i+1]]
	}
	switch {
	case !ok && sc.scan:
		return true
	case !ok:
		sc.err = s.danglingf(run[0])
		return false
	}
	if err := sc.blk.parse(val); err != nil {
		sc.err = s.corruptf(err)
		return false
	}
	for _, id := range run {
		rec := sc.blk.record(int(id % blockIDs))
		switch {
		case rec == nil && sc.scan:
			continue
		case rec == nil:
			sc.err = s.danglingf(id)
			return false
		case !sc.onMiss(id, rec):
			return false
		}
	}
	return true
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

// onReplay applies one fetched record for lookupFullOne: decoded, if the
// cache has room to admit it afterwards, else replayed from its bytes.
// Either way the whole record validates before any cell reaches dst.
func (sc *lookupScratch) onReplay(id uint64, val []byte) bool {
	s := sc.st
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

// onDecode decodes one fetched record into sc.decoded.
func (sc *lookupScratch) onDecode(id uint64, val []byte) bool {
	rec, err := sc.st.loadRecord(val)
	if err != nil {
		sc.err = err
		return false
	}
	sc.decoded = append(sc.decoded, cachedRecord{id, rec})
	return true
}

// forEachRecord calls fn with the record of every id in sc.ids, once each:
// the cached ones first, then the misses, fetched (fetchMisses) and
// decoded, and, with admit, offered to the cache afterwards. abort is
// polled every abortCheckInterval records, counted across calls on one
// scratch.
func (sc *lookupScratch) forEachRecord(admit bool, abort func() bool, fn func(*record)) error {
	s := sc.st
	s.recMu.Lock()
	for _, id := range sc.ids {
		if rec, ok := s.recCache[id]; ok {
			sc.hits = append(sc.hits, rec)
		} else {
			sc.misses = append(sc.misses, id)
		}
	}
	s.recMu.Unlock()
	for _, rec := range sc.hits {
		if !sc.apply(rec, abort, fn) {
			break
		}
	}
	clear(sc.hits)
	sc.hits = sc.hits[:0]
	if sc.err != nil {
		sc.misses = sc.misses[:0]
		return sc.err
	}
	sc.onMiss = sc.decodeFn
	if sc.fetchMisses() {
		for _, d := range sc.decoded {
			if !sc.apply(d.rec, abort, fn) {
				break
			}
		}
	}
	if !admit {
		clear(sc.decoded)
		sc.decoded = sc.decoded[:0]
	}
	sc.admitDecoded()
	return sc.err
}

// apply polls abort if a poll is due and then calls fn with rec, reporting
// whether the lookup may go on.
func (sc *lookupScratch) apply(rec *record, abort func() bool, fn func(*record)) bool {
	if sc.applied++; sc.applied%abortCheckInterval == 0 && aborted(abort) {
		sc.err = ErrAborted
		return false
	}
	fn(rec)
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
	sc.st = s
	return sc.forEachRecord(true, abort, fn)
}

// scanChunk is how many ids one GetBatch of a record scan covers.
const scanChunk = 16 * blockIDs

// scanRecords calls fn with every pair record, fetching the blocks in id
// order, scanChunk ids at a time. Cached records are served from the
// cache, and the scan admits none, so it does not crowd out the records of
// indexed lookups. abort is polled every abortCheckInterval records.
func (s *Store) scanRecords(abort func() bool, fn func(*record)) error {
	sc := getScratch()
	defer sc.release()
	sc.st, sc.scan = s, true
	next := s.nextPair
	for lo := uint64(0); lo < next; lo += scanChunk {
		sc.ids = sc.ids[:0]
		for id := lo; id < min(lo+scanChunk, next); id++ {
			sc.ids = append(sc.ids, id)
		}
		if err := sc.forEachRecord(false, abort, fn); err != nil {
			return err
		}
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
	return s.scanRecords(abort, func(rec *record) {
		if rec.outs.intersects(q) {
			rec.ins[inputIdx].addTo(dst)
		}
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
	switch {
	case s.strat.Mode == Pay || s.strat.Mode == Comp:
		if s.strat.Enc == One {
			return s.forwardPayOneScan(q, dst, inputIdx, mapp, abort)
		}
		return s.forwardPayManyScan(q, dst, inputIdx, mapp, abort)
	case s.strat.Orient == BackwardOpt:
		// Mismatched orientation for full lineage: scan records.
		return s.scanRecords(abort, func(rec *record) {
			if rec.ins[inputIdx].intersects(q) {
				rec.outs.addTo(dst)
			}
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
	return s.scanRecords(abort, func(rec *record) {
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
	})
}

// ContainsOut reports whether an output cell is covered by any stored
// (payload) pair. The query executor uses it to decide which output cells
// of a composite operator keep their default mapping on the forward path.
// On One encodings it probes the cell's tile as a one-cell tile batch: the
// tile value is lent by GetBatch, never copied. On Many encodings it
// fetches the records of the index items holding the cell in one batch.
func (s *Store) ContainsOut(cell uint64) (bool, error) {
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
	sc.ids = sc.ids[:0]
	s.trees[0].SearchPoint(sc.qlo, func(it rtree.Item) bool {
		sc.ids = append(sc.ids, it.ID)
		return true
	})
	sc.st, sc.found = s, false
	err := sc.forEachRecord(true, nil, func(rec *record) {
		sc.found = sc.found || rec.outs.contains(cell)
	})
	return sc.found, err
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
