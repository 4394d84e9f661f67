package query

import (
	"context"
	"errors"
	"fmt"
	"time"

	"subzero/internal/bitmap"
	"subzero/internal/grid"
	"subzero/internal/lineage"
	"subzero/internal/obs"
	"subzero/internal/trace"
	"subzero/internal/workflow"
)

// Access-path kinds, as step reports label them. A kind is its obs span
// class, so a step's metric series and span class need no translation;
// PathConservative is a label only (its class is PathReexec).
const (
	PathEntireArray  = obs.SpanEntireArray
	PathMap          = obs.SpanMap
	PathComposite    = obs.SpanComposite
	PathStore        = obs.SpanStore
	PathStoreScan    = obs.SpanStoreScan
	PathReexec       = obs.SpanReexec
	PathConservative = "reexec-conservative"
)

// errTraceDone stops a tracing re-execution early once the destination
// bitmap is saturated (the paper's early-close optimization).
var errTraceDone = errors.New("query: trace complete")

// stepPool recycles the per-step intermediate boolean arrays across all
// executors: each query allocates one bitmap per path step and discards
// all but the final result, so steady query traffic reuses the same word
// storage instead of re-allocating it. Result bitmaps handed to callers
// are never returned to the pool.
var stepPool bitmap.Pool

// candidate is one way to resolve a step: plain data, priced by candidates
// and run by runCandidate. kind is one of the Path* constants and is the
// step's metric and span class as it stands — nothing is parsed back out of
// a label.
type candidate struct {
	kind  string
	store *lineage.Store // set for the composite, store and store-scan kinds
	cost  time.Duration
}

// label formats the access path a settled step reports — the one place a
// path string is built, and only for the candidate that ran: its kind, the
// store's strategy for store-backed kinds, "+reexec" after a fallback.
func (c candidate) label(fellBack bool) string {
	s := c.kind
	if c.store != nil {
		s = s + "(" + c.store.Strategy().String() + ")"
	}
	if fellBack {
		s += "+" + PathReexec
	}
	return s
}

// stepMaps is how a step reaches the operator's maps. geom is its declared
// Geometry (nil when it has none), which reads the run-wide MapCtx's
// geometry alone. Per-cell and payload maps also write the context's
// coordinate scratch, which concurrent queries (QueryBatch) must not
// share, so they run on a private clone, made the first time the step
// needs it: a rect-mapped step, a plain store lookup or a re-execution
// clones nothing.
type stepMaps struct {
	geom        workflow.Geometry
	shared, own *workflow.MapCtx
}

// private returns the step's own MapCtx, cloning the run-wide one on first
// use.
func (m *stepMaps) private() *workflow.MapCtx {
	if m.own == nil {
		m.own = m.shared.Clone()
	}
	return m.own
}

// cellMapper resolves the operator's per-cell map for a direction, nil when
// it has none.
func cellMapper(d Direction, node *workflow.Node) workflow.CellMapFn {
	return workflow.CellMap(node.Op, d == Backward)
}

// executeStep resolves one path step, returning the report and the next
// intermediate bitmap. The step is measured once: the clock is read when
// the step starts and again in finishStep, and that one interval is the
// report's Elapsed, the step span's duration and the class histogram's
// observation.
func (e *Executor) executeStep(ctx context.Context, d Direction, st Step, cur *bitmap.Bitmap) (StepReport, *bitmap.Bitmap, error) {
	report := StepReport{Node: st.Node, InputIdx: st.InputIdx, InCells: cur.Count()}
	destSpace, err := e.stepDestSpace(d, st)
	if err != nil {
		return report, nil, err
	}
	node := e.run.Spec.Node(st.Node)
	mc, err := e.run.MapCtx(st.Node)
	if err != nil {
		return report, nil, err
	}
	next := stepPool.Get(destSpace)
	maps := stepMaps{shared: mc}
	maps.geom, _ = node.Op.(workflow.Geometry)
	start := time.Now()
	// The step span keeps class "other" only if the step fails; finishStep
	// sets the class of the access path that answered it.
	ssp := trace.FromContext(ctx).ChildNamed("step ", st.Node, obs.SpanOther)
	ssp.SetAttrInt("input", int64(st.InputIdx))
	ssp.SetAttrInt("in_cells", int64(report.InCells))

	// Entire-array optimization (paper §VI-C), two forms: an annotated
	// all-to-all operator relates every input cell to every output cell,
	// so any non-empty query maps to the full destination array; and when
	// the intermediate boolean array is already completely set — which
	// happens after traversing an all-to-all or several high-fanin
	// operators — an operator annotated full-preserving for this
	// direction and input maps it to the full destination without
	// tracing.
	if e.opts.EntireArray && !cur.Empty() {
		if workflow.IsAllToAll(node.Op) ||
			(cur.Full() && workflow.IsEntireArraySafe(node.Op, d == Forward, st.InputIdx)) {
			next.SetAll()
			report.AccessPath = PathEntireArray
			e.finishStep(ssp, PathEntireArray, start, next, &report)
			return report, next, nil
		}
	}

	// Candidate enumeration costs store metadata lookups and cost
	// estimates; it is timed like a step, as class "probe". The operator's
	// statistics are read once here and every estimate prices from them.
	probeStart := time.Now()
	psp := ssp.Child("candidates", obs.SpanProbe)
	opStats := e.stats.Get(st.Node)
	reexecCost := reexecEstimate(&opStats, mc)
	var candBuf [4]candidate // map, two stores, re-execution: the usual step stays off the heap
	cands := e.candidates(candBuf[:0], d, st, node, &maps, cur, next, report.InCells, reexecCost)
	e.endSpan(psp, obs.SpanProbe, probeStart)
	chosen := cands[0]
	if e.opts.Dynamic {
		for _, c := range cands[1:] {
			if c.cost < chosen.cost {
				chosen = c
			}
		}
	}

	// Saturation short-circuit: even without the query-time optimizer,
	// store lookups close early once every destination cell is set — the
	// abort surfaces as a "full" ErrAborted, which is the entire-array fast
	// path succeeding mid-step.
	abort := next.Full
	if e.opts.Dynamic && chosen.kind != PathReexec {
		// Query-time optimizer: monitor the lineage access and abort once
		// it has consumed the re-execution budget; the subsequent fallback
		// bounds the step at ~2x black-box (paper §VII-A).
		deadline := start.Add(reexecCost)
		abort = func() bool { return next.Full() || time.Now().After(deadline) }
	}
	conservative, runErr := e.runCandidate(ctx, ssp, chosen, d, st, node, &maps, cur, next, abort)

	if runErr != nil {
		corrupt := errors.Is(runErr, lineage.ErrCorrupt)
		if !corrupt && !errors.Is(runErr, lineage.ErrAborted) {
			return e.failStep(ssp, report, next, runErr)
		}
		if corrupt {
			// Corruption quarantine: the store has already latched its
			// degraded flag; hand it to the healer for a background
			// rebuild and answer this query through re-execution — the
			// same fallback an optimizer abort takes, because replay is
			// ground truth for the lineage the store failed to serve.
			e.notifyDegraded(st.Node)
		}
		if !next.Full() {
			// Genuine abort: discard partial work and re-execute.
			next.Clear()
			report.FellBack = true
			if conservative, err = e.runReexec(ctx, d, st, cur, next); err != nil {
				return e.failStep(ssp, report, next, err)
			}
		}
		// A "full" abort is the early-close optimization succeeding:
		// lineage lookups only ever set true positives, so a saturated
		// intermediate is exact no matter why the path stopped early.
	}
	class := chosen.kind
	report.AccessPath = chosen.label(report.FellBack)
	if conservative {
		// The operator cannot trace: whichever path was tried first, the
		// answer is the conservative whole array and counts as re-execution.
		class, report.AccessPath = PathReexec, PathConservative
	}
	e.finishStep(ssp, class, start, next, &report)
	return report, next, nil
}

// endSpan closes a timed region on one clock read: sp ends over exactly
// [start, start+d] and the class series observe the same d, which is
// returned for the caller's report.
func (e *Executor) endSpan(sp *trace.Span, class string, start time.Time) time.Duration {
	d := time.Since(start)
	sp.EndAt(start, d)
	if e.obs != nil {
		e.obs.ObserveStep(class, d)
	}
	return d
}

// finishStep is the single record of a step that produced an answer: it
// fills the report's OutCells and Elapsed, ends the step span with its
// class and attributes, observes the class counter and histogram, bumps
// the operator-hit and fallback counters, and feeds the collector.
func (e *Executor) finishStep(sp *trace.Span, class string, start time.Time, next *bitmap.Bitmap, r *StepReport) {
	r.OutCells = next.Count()
	sp.SetClass(class)
	sp.SetAttr("path", r.AccessPath)
	sp.SetAttrInt("out_cells", int64(r.OutCells))
	r.Elapsed = e.endSpan(sp, class, start)
	if e.obs != nil {
		e.obs.OperatorHits.With2(r.Node, r.AccessPath).Inc()
		if r.FellBack {
			e.obs.Fallbacks.Inc()
		}
	}
	e.stats.RecordQueryStep(r.Node, r.Elapsed, r.FellBack || class == PathReexec)
}

// failStep abandons a step that produced no answer: the span ends as it
// started (class "other") and the destination bitmap goes back to the pool.
func (e *Executor) failStep(sp *trace.Span, r StepReport, next *bitmap.Bitmap, err error) (StepReport, *bitmap.Bitmap, error) {
	sp.End()
	stepPool.Put(next)
	return r, nil, err
}

// candidates prices the access paths available for a step into buf, in
// static preference order: mapping functions, then composite, then
// orientation-matched stores, then mismatched stores, then re-execution.
// n is the query cell count.
func (e *Executor) candidates(buf []candidate, d Direction, st Step, node *workflow.Node, maps *stepMaps, cur, next *bitmap.Bitmap, n uint64, reexecCost time.Duration) []candidate {
	cells := time.Duration(n)

	// Mapping functions: available when the Map strategy is assigned and
	// the operator declares its geometry or implements the needed
	// direction.
	hasMap := false
	for _, s := range e.run.Strategies(st.Node) {
		if s.Mode == lineage.Map {
			hasMap = true
		}
	}
	if hasMap && (maps.geom != nil || cellMapper(d, node) != nil) {
		fanPerCell := probeMapFan(d, node, maps, st.InputIdx, cur, next)
		buf = append(buf, candidate{
			kind: PathMap,
			cost: cells*cMapCall + time.Duration(float64(n)*fanPerCell)*cCellSet,
		})
	}

	// Materialized stores: the composite store (usable only when the
	// operator can evaluate payloads), then matched orientation, then
	// mismatched.
	stores := e.run.Stores(st.Node)
	var comp *lineage.Store
	for _, s := range stores {
		if s.Strategy().Mode == lineage.Comp {
			comp = s
		}
	}
	if _, isPM := node.Op.(workflow.PayloadMapper); comp != nil && isPM {
		buf = append(buf, candidate{kind: PathComposite, store: comp, cost: storeCost(d, comp, cells, true)})
	}
	for _, matched := range [2]bool{true, false} {
		kind := PathStore
		if !matched {
			kind = PathStoreScan
		}
		for _, s := range stores {
			if strat := s.Strategy(); strat.Mode != lineage.Comp && orientMatches(d, strat) == matched {
				buf = append(buf, candidate{kind: kind, store: s, cost: storeCost(d, s, cells, matched)})
			}
		}
	}

	// Black-box re-execution: always available.
	return append(buf, candidate{kind: PathReexec, cost: reexecCost})
}

// orientMatches reports whether a store's layout serves direction d by
// lookup rather than by scan.
func orientMatches(d Direction, strat lineage.Strategy) bool {
	if d == Backward {
		return strat.Orient == lineage.BackwardOpt
	}
	return strat.Orient == lineage.ForwardOpt && strat.Mode == lineage.Full
}

// runCandidate runs the chosen access path — the one dispatch on a
// candidate's kind. conservative reports that re-execution could not trace
// the operator and set the whole destination array.
func (e *Executor) runCandidate(ctx context.Context, sp *trace.Span, c candidate, d Direction, st Step, node *workflow.Node, maps *stepMaps, cur, next *bitmap.Bitmap, abort func() bool) (conservative bool, err error) {
	switch c.kind {
	case PathMap:
		return false, mapStep(d, node, maps, st.InputIdx, cur, next, abort)
	case PathComposite:
		return false, e.runComposite(sp, d, st, node, maps, c.store, cur, next, abort)
	case PathStore, PathStoreScan:
		return false, e.runStore(sp, d, st, node, maps, c.store, cur, next, abort)
	default:
		return e.runReexec(ctx, d, st, cur, next)
	}
}

// pollEvery is how many rectangles or cells a mapped step handles between
// two checks that it may stop: next saturated (early close) or abort.
// Polling on every rectangle put the deadline's clock read at a tenth of
// a query's CPU where sets split into one rectangle per row.
const pollEvery = 64

// mapStep sets in next what the operator's map sends the cells of src to:
// a rectangle at a time through its declared geometry, else a cell at a
// time through its per-cell map.
func mapStep(d Direction, node *workflow.Node, maps *stepMaps, inputIdx int, src, next *bitmap.Bitmap, abort func() bool) error {
	if maps.geom != nil {
		return mapRects(maps.geom, maps.shared, d == Backward, inputIdx, src, next, abort)
	}
	return mapCells(cellMapper(d, node), maps.private(), inputIdx, src, next, abort, nil)
}

// mapRects drives a declared geometry over the rectangles of src, setting
// each rectangle it covers in next. Every pollEvery rectangles it closes
// early once next saturates and polls abort. It allocates nothing: the
// rectangles live in src's and next's scratch.
func mapRects(g workflow.Geometry, mc *workflow.MapCtx, backward bool, inputIdx int, src, next *bitmap.Bitmap, abort func() bool) error {
	dst := next.ScratchRect()
	var err error
	n := 0
	src.IterateRects(func(r grid.Rect) bool {
		if n++; n%pollEvery == 0 {
			if next.Full() {
				return false // early close
			}
			if abort() {
				err = lineage.ErrAborted
				return false
			}
		}
		if g.Cover(mc, backward, r, inputIdx, dst) {
			next.SetRect(dst)
		}
		return true
	})
	return err
}

// mapCells drives a per-cell mapping function over the cells of src,
// handing each cell's mapped cells to sink (nil sets them in next). Every
// pollEvery cells it closes early once next saturates and polls abort.
func mapCells(mapper workflow.CellMapFn, mc *workflow.MapCtx, inputIdx int, src, next *bitmap.Bitmap, abort func() bool, sink func(mapped []uint64) error) error {
	var buf []uint64
	var stepErr error
	n := 0
	src.Iterate(func(cell uint64) bool {
		if n++; n%pollEvery == 0 {
			if next.Full() {
				return false // early close
			}
			if abort() {
				stepErr = lineage.ErrAborted
				return false
			}
		}
		buf = mapper(mc, cell, inputIdx, buf[:0])
		if sink == nil {
			next.SetCells(buf)
			return true
		}
		stepErr = sink(buf)
		return stepErr == nil
	})
	return stepErr
}

// runStore resolves a step against one materialized store (matched or
// mismatched orientation — the store handles both).
func (e *Executor) runStore(sp *trace.Span, d Direction, st Step, node *workflow.Node, maps *stepMaps, store *lineage.Store, cur, next *bitmap.Bitmap, abort func() bool) error {
	mapp := e.payloadFn(node, maps, store)
	if d == Backward {
		return store.BackwardSpan(sp, cur, next, st.InputIdx, mapp, nil, abort)
	}
	return store.ForwardSpan(sp, cur, next, st.InputIdx, mapp, abort)
}

// runComposite resolves a step against a composite store: stored payload
// pairs override the operator's default mapping (paper §V-A4).
func (e *Executor) runComposite(sp *trace.Span, d Direction, st Step, node *workflow.Node, maps *stepMaps, store *lineage.Store, cur, next *bitmap.Bitmap, abort func() bool) error {
	mapper := cellMapper(d, node)
	if mapper == nil {
		return fmt.Errorf("composite operator %s lacks the %s default mapping", node.Op.Name(), d)
	}
	mapp := e.payloadFn(node, maps, store)
	if d == Backward {
		rest := stepPool.Get(maps.shared.OutSpace)
		defer stepPool.Put(rest)
		if err := store.BackwardSpan(sp, cur, next, st.InputIdx, mapp, rest, abort); err != nil {
			return err
		}
		// Default mapping for the query cells no payload pair covered.
		if rest.Empty() {
			return mapStep(d, node, maps, st.InputIdx, cur, next, abort)
		}
		rest.ComplementIn(cur)
		return mapStep(d, node, maps, st.InputIdx, rest, next, abort)
	}

	// Forward: payload pairs are scanned by the store; output cells not
	// covered by any payload pair keep the default forward mapping.
	if err := store.ForwardSpan(sp, cur, next, st.InputIdx, mapp, abort); err != nil {
		return err
	}
	return mapCells(mapper, maps.private(), st.InputIdx, cur, next, abort, func(mapped []uint64) error {
		for _, out := range mapped {
			if next.Get(out) {
				continue
			}
			inStore, err := store.ContainsOut(out)
			if err != nil {
				return err
			}
			if !inStore {
				next.Set(out)
			}
		}
		return nil
	})
}

// runReexec re-runs the operator in tracing mode and joins the streamed
// region pairs with the query cells (paper §V-B). Operators that cannot
// trace resolve conservatively to the entire destination array, which the
// first result reports.
func (e *Executor) runReexec(ctx context.Context, d Direction, st Step, cur, next *bitmap.Bitmap) (conservative bool, err error) {
	sink := func(rp *lineage.RegionPair) error {
		if d == Backward {
			for _, out := range rp.Out {
				if cur.Get(out) {
					next.SetCells(rp.Ins[st.InputIdx])
					break
				}
			}
		} else {
			for _, in := range rp.Ins[st.InputIdx] {
				if cur.Get(in) {
					next.SetCells(rp.Out)
					break
				}
			}
		}
		if next.Full() {
			return errTraceDone // early close
		}
		return nil
	}
	_, err = e.run.Reexecute(ctx, st.Node, sink)
	switch {
	case err == nil || errors.Is(err, errTraceDone):
		return false, nil
	case errors.Is(err, workflow.ErrNoTracing):
		// No lineage API at all: assume all-to-all (paper §IV).
		next.SetAll()
		return true, nil
	default:
		return false, err
	}
}

// payloadFn adapts the operator's MapP to the store-level callback, on the
// step's private MapCtx; nil when the store holds no payloads or the
// operator has no MapP.
func (e *Executor) payloadFn(node *workflow.Node, maps *stepMaps, store *lineage.Store) lineage.PayloadFn {
	pm, ok := node.Op.(workflow.PayloadMapper)
	if mode := store.Strategy().Mode; !ok || (mode != lineage.Pay && mode != lineage.Comp) {
		return nil
	}
	mc := maps.private()
	return func(out uint64, payload []byte, inputIdx int, dst []uint64) []uint64 {
		return pm.MapP(mc, out, payload, inputIdx, dst)
	}
}
