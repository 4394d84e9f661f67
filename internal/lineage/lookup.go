package lineage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"subzero/internal/bitmap"
	"subzero/internal/grid"
	"subzero/internal/obs"
	"subzero/internal/rtree"
	"subzero/internal/trace"
)

// The lookup hot path is span-oriented end to end: query bitmaps are
// walked as runs, hashtable probes are grouped into batches served under
// one kvstore lock, records stay in container form and replay
// word-parallel into the destination bitmap, and Many-encoding index
// probes are rectangle window queries instead of per-cell point queries.
// Per-lookup buffers live in a sync.Pool so a steady query load allocates
// almost nothing.

// probeBatchSize is how many per-cell hashtable probes are grouped into
// one kvstore GetBatch call (one lock acquisition / I/O pass per batch).
// It is also the abort-poll granularity of the One-encoding paths.
const probeBatchSize = 256

// lookupScratch holds the reusable buffers of one in-flight lookup.
type lookupScratch struct {
	cells  []uint64            // batched query cells awaiting probe
	keyBuf []byte              // arena backing the probe keys
	keys   [][]byte            // per-cell probe keys, slices of keyBuf
	ids    []uint64            // decoded pair-id list of one cell entry
	seen   map[uint64]struct{} // pair ids already applied this lookup
}

var scratchPool = sync.Pool{
	New: func() any { return &lookupScratch{seen: make(map[uint64]struct{}, 64)} },
}

func getScratch() *lookupScratch { return scratchPool.Get().(*lookupScratch) }

func (sc *lookupScratch) release() {
	sc.cells = sc.cells[:0]
	clear(sc.seen)
	scratchPool.Put(sc)
}

// forEachBatch walks q as runs, accumulating cells into sc.cells and
// invoking process at every probeBatchSize boundary plus once for the
// final partial batch. process consumes sc.cells and must reset it; a
// false return stops the walk (and skips the final flush).
func (sc *lookupScratch) forEachBatch(q *bitmap.Bitmap, process func() bool) {
	ok := true
	q.IterateRuns(func(start, length uint64) bool {
		for c := start; c < start+length; c++ {
			sc.cells = append(sc.cells, c)
			if len(sc.cells) == probeBatchSize && !process() {
				ok = false
				return false
			}
		}
		return true
	})
	if ok {
		process()
	}
}

// buildKeys fills the key arena with one cell key per batched cell.
func (sc *lookupScratch) buildKeys(slot int) {
	sc.keyBuf = sc.keyBuf[:0]
	sc.keys = sc.keys[:0]
	for _, c := range sc.cells {
		off := len(sc.keyBuf)
		sc.keyBuf = append(sc.keyBuf, keyCell, byte(slot))
		sc.keyBuf = binary.BigEndian.AppendUint64(sc.keyBuf, c)
		sc.keys = append(sc.keys, sc.keyBuf[off:len(sc.keyBuf):len(sc.keyBuf)])
	}
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
		return s.lookupFullOne(sp, q, dst, 0, inputIdx, false, abort)
	case s.strat.Enc == Many && s.strat.Mode == Full:
		return s.backwardFullMany(q, dst, inputIdx, abort)
	case s.strat.Enc == One:
		return s.backwardPayOne(sp, q, dst, inputIdx, mapp, covered, abort)
	default:
		return s.backwardPayMany(q, dst, inputIdx, mapp, covered, abort)
	}
}

// lookupFullOne serves both directions of the FullOne encodings: probe
// the slot's per-cell hash entries in batches, then replay each distinct
// referenced pair record into dst exactly once (records repeat under
// fanout, so the dedup both batches record fetches and skips redundant
// bitmap writes).
func (s *Store) lookupFullOne(sp *trace.Span, q, dst *bitmap.Bitmap, slot, inputIdx int, forward bool, abort func() bool) error {
	sc := getScratch()
	defer sc.release()
	var err error
	process := func() bool {
		if len(sc.cells) == 0 {
			return true
		}
		if aborted(abort) {
			err = ErrAborted
			return false
		}
		sc.buildKeys(slot)
		// Phase 1: drain the hashtable batch into the id scratch. No
		// store re-entry happens under the batch's lock; record fetches
		// wait for phase 2.
		sc.ids = sc.ids[:0]
		ksp := sp.Child("kvstore.GetBatch", obs.SpanKVProbe)
		ksp.SetAttrInt("keys", int64(len(sc.keys)))
		berr := s.kv.GetBatch(sc.keys, func(_ int, val []byte, ok bool) bool {
			if !ok {
				return true
			}
			if sc.ids, err = appendIDList(sc.ids, val); err != nil {
				err = s.corruptf(err)
			}
			return err == nil
		})
		ksp.End()
		if berr != nil && err == nil {
			err = berr
		}
		if err != nil {
			return false
		}
		// Phase 2: replay each referenced pair record exactly once.
		for _, id := range sc.ids {
			if _, dup := sc.seen[id]; dup {
				continue
			}
			sc.seen[id] = struct{}{}
			rec, rerr := s.getRecord(id)
			if rerr != nil {
				err = rerr
				return false
			}
			if forward {
				rec.outs.addTo(dst)
			} else {
				rec.ins[inputIdx].addTo(dst)
			}
		}
		sc.cells = sc.cells[:0]
		return true
	}
	sc.forEachBatch(q, process)
	return err
}

// candidateIDs collects the distinct pair ids whose key-side bounding box
// intersects the query, by decomposing the query bitmap into covering
// rectangles and running one R-tree window query per rectangle.
func (s *Store) candidateIDs(q *bitmap.Bitmap, slot int, abort func() bool) (map[uint64]struct{}, error) {
	ids := make(map[uint64]struct{})
	tr := s.trees[slot]
	var err error
	q.IterateRects(func(r grid.Rect) bool {
		// One rect replaces a whole batch of point probes, so poll the
		// abort hook on every window query.
		if aborted(abort) {
			err = ErrAborted
			return false
		}
		tr.SearchRect(r, func(it rtree.Item) bool {
			ids[it.ID] = struct{}{}
			return true
		})
		return true
	})
	if err != nil {
		return nil, err
	}
	return ids, nil
}

func (s *Store) backwardFullMany(q, dst *bitmap.Bitmap, inputIdx int, abort func() bool) error {
	ids, err := s.candidateIDs(q, 0, abort)
	if err != nil {
		return err
	}
	n := 0
	for id := range ids {
		if n++; n%abortCheckInterval == 0 && aborted(abort) {
			return ErrAborted
		}
		rec, err := s.getRecord(id)
		if err != nil {
			return err
		}
		if rec.outs.intersects(q) {
			rec.ins[inputIdx].addTo(dst)
		}
	}
	return nil
}

func (s *Store) backwardPayOne(sp *trace.Span, q, dst *bitmap.Bitmap, inputIdx int, mapp PayloadFn, covered *bitmap.Bitmap, abort func() bool) error {
	sc := getScratch()
	defer sc.release()
	var err error
	var buf []uint64
	n := 0
	process := func() bool {
		if len(sc.cells) == 0 {
			return true
		}
		if aborted(abort) {
			err = ErrAborted
			return false
		}
		sc.buildKeys(0)
		ksp := sp.Child("kvstore.GetBatch", obs.SpanKVProbe)
		ksp.SetAttrInt("keys", int64(len(sc.keys)))
		berr := s.kv.GetBatch(sc.keys, func(i int, val []byte, ok bool) bool {
			if !ok {
				return true
			}
			// map_p dominates this path, so the abort hook is polled at
			// per-cell granularity inside the batch as well.
			if n++; n%abortCheckInterval == 0 && aborted(abort) {
				err = ErrAborted
				return false
			}
			cell := sc.cells[i]
			if perr := forEachPayload(val, func(p []byte) error {
				buf = mapp(cell, p, inputIdx, buf[:0])
				dst.SetCells(buf)
				return nil
			}); perr != nil {
				err = s.corruptf(perr)
				return false
			}
			if covered != nil {
				covered.Set(cell)
			}
			return true
		})
		ksp.End()
		if berr != nil && err == nil {
			err = berr
		}
		sc.cells = sc.cells[:0]
		return err == nil
	}
	sc.forEachBatch(q, process)
	return err
}

func (s *Store) backwardPayMany(q, dst *bitmap.Bitmap, inputIdx int, mapp PayloadFn, covered *bitmap.Bitmap, abort func() bool) error {
	ids, err := s.candidateIDs(q, 0, abort)
	if err != nil {
		return err
	}
	var buf []uint64
	n := 0
	for id := range ids {
		if n++; n%abortCheckInterval == 0 && aborted(abort) {
			return ErrAborted
		}
		rec, err := s.getRecord(id)
		if err != nil {
			return err
		}
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
	}
	return nil
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
		return s.lookupFullOne(sp, q, dst, inputIdx, inputIdx, true, abort)
	default:
		return s.forwardFullMany(q, dst, inputIdx, abort)
	}
}

func (s *Store) forwardFullMany(q, dst *bitmap.Bitmap, inputIdx int, abort func() bool) error {
	ids, err := s.candidateIDs(q, inputIdx, abort)
	if err != nil {
		return err
	}
	n := 0
	for id := range ids {
		if n++; n%abortCheckInterval == 0 && aborted(abort) {
			return ErrAborted
		}
		rec, err := s.getRecord(id)
		if err != nil {
			return err
		}
		if rec.ins[inputIdx].intersects(q) {
			rec.outs.addTo(dst)
		}
	}
	return nil
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
			if anyInBitmap(buf, q) {
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
			if anyInBitmap(buf, q) {
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
func (s *Store) ContainsOut(cell uint64) (bool, error) {
	if err := s.beginRead(); err != nil {
		return false, err
	}
	defer s.gate.RUnlock()
	if s.strat.Enc == One {
		_, ok, err := s.kv.Get(cellKey(0, cell))
		return ok, err
	}
	coord := s.outSpace.Unravel(cell)
	found := false
	var ferr error
	s.trees[0].SearchPoint(coord, func(it rtree.Item) bool {
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

func intersectsBitmap(cells []uint64, b *bitmap.Bitmap) bool {
	for _, c := range cells {
		if b.Get(c) {
			return true
		}
	}
	return false
}

func anyInBitmap(cells []uint64, b *bitmap.Bitmap) bool { return intersectsBitmap(cells, b) }
