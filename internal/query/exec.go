package query

import (
	"context"
	"errors"
	"fmt"
	"time"

	"subzero/internal/bitmap"
	"subzero/internal/lineage"
	"subzero/internal/obs"
	"subzero/internal/trace"
	"subzero/internal/workflow"
)

// Access-path labels used in step reports.
const (
	PathEntireArray  = "entire-array"
	PathMap          = "map"
	PathComposite    = "composite"
	PathStore        = "store"
	PathStoreScan    = "store-scan"
	PathReexec       = "reexec"
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

// candidate is one way to resolve a step, with its cost estimate.
type candidate struct {
	label string
	cost  time.Duration
	run   func(abort func() bool) error
}

// executeStep resolves one path step, returning the report and the next
// intermediate bitmap.
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
	// The run-wide MapCtx carries shared coordinate scratch; concurrent
	// queries (QueryBatch) must not share it, so each step works on a
	// private clone.
	mc = mc.Clone()
	start := time.Now()
	// Step span: the class starts as "other" and is rewritten to the
	// chosen access path's SpanClass family once execution settles it.
	ssp := trace.FromContext(ctx).ChildNamed("step ", st.Node, "other")
	ssp.SetAttrInt("input", int64(st.InputIdx))
	ssp.SetAttrInt("in_cells", int64(report.InCells))
	defer func() {
		if c := obs.SpanClass(report.AccessPath); c != "" {
			ssp.SetClass(c)
		}
		if report.AccessPath != "" {
			ssp.SetAttr("path", report.AccessPath)
		}
		ssp.SetAttrInt("out_cells", int64(report.OutCells))
		ssp.End()
	}()

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
			report.OutCells = next.Count()
			report.Elapsed = time.Since(start)
			e.record(report, false)
			return report, next, nil
		}
	}

	// Candidate probe span: enumerating access paths costs store metadata
	// lookups and cost estimates, attributed separately from execution.
	var probeStart time.Time
	if e.obs != nil {
		probeStart = time.Now()
	}
	psp := ssp.Child("candidates", obs.SpanProbe)
	cands := e.candidates(ctx, ssp, d, st, node, mc, cur, next, &report)
	psp.End()
	if e.obs != nil {
		e.obs.RecordProbe(time.Since(probeStart))
	}
	chosen := cands[0]
	if e.opts.Dynamic {
		for _, c := range cands[1:] {
			if c.cost < chosen.cost {
				chosen = c
			}
		}
	}
	reexecBudget := e.reexecEstimate(st.Node)

	report.AccessPath = chosen.label
	runErr := func() error {
		if !e.opts.Dynamic || chosen.label == PathReexec {
			// Saturation short-circuit: even without the query-time
			// optimizer, store lookups close early once every
			// destination cell is set — the abort surfaces as a "full"
			// ErrAborted, which is the entire-array fast path succeeding
			// mid-step.
			return chosen.run(next.Full)
		}
		// Query-time optimizer: monitor the lineage access and abort once
		// it has consumed the re-execution budget; the subsequent fallback
		// bounds the step at ~2x black-box (paper §VII-A).
		deadline := start.Add(reexecBudget)
		return chosen.run(func() bool { return next.Full() || time.Now().After(deadline) })
	}()

	if runErr != nil {
		corrupt := errors.Is(runErr, lineage.ErrCorrupt)
		if !corrupt && !errors.Is(runErr, lineage.ErrAborted) {
			stepPool.Put(next)
			return report, nil, runErr
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
			report.AccessPath = chosen.label + "+" + PathReexec
			if err := e.runReexec(ctx, d, st, cur, next, &report); err != nil {
				stepPool.Put(next)
				return report, nil, err
			}
		}
		// A "full" abort is the early-close optimization succeeding:
		// lineage lookups only ever set true positives, so a saturated
		// intermediate is exact no matter why the path stopped early.
	}
	report.OutCells = next.Count()
	report.Elapsed = time.Since(start)
	e.record(report, report.FellBack || chosen.label == PathReexec || chosen.label == PathConservative)
	return report, next, nil
}

func (e *Executor) record(r StepReport, reexec bool) {
	e.stats.RecordQueryStep(r.Node, int64(r.InCells), int64(r.OutCells), r.Elapsed, reexec)
	if e.obs != nil {
		e.obs.RecordStep(r.Node, r.AccessPath, r.Elapsed, r.FellBack)
	}
}

// candidates enumerates the access paths available for a step, cheapest
// estimates included. The slice is ordered by static preference: mapping
// functions, then composite, then orientation-matched stores, then
// mismatched stores, then re-execution.
func (e *Executor) candidates(ctx context.Context, sp *trace.Span, d Direction, st Step, node *workflow.Node, mc *workflow.MapCtx, cur, next *bitmap.Bitmap, report *StepReport) []candidate {
	var cands []candidate
	strategies := e.run.Strategies(st.Node)
	opStats := e.stats.Get(st.Node)
	n := time.Duration(cur.Count())

	// Mapping functions: available when the Map strategy is assigned and
	// the operator implements the needed direction.
	hasMap := false
	for _, s := range strategies {
		if s.Mode == lineage.Map {
			hasMap = true
		}
	}
	if hasMap && e.hasMapper(d, node) {
		fanPerCell := e.probeMapFan(d, st, node, mc, cur)
		cands = append(cands, candidate{
			label: PathMap,
			cost:  n*cMapCall + time.Duration(float64(n)*fanPerCell)*cCellSet,
			run: func(abort func() bool) error {
				return e.runMap(d, st, node, mc, cur, next, abort)
			},
		})
	}

	// Materialized stores.
	var matched, mismatched []*lineage.Store
	var comp *lineage.Store
	for _, s := range e.run.Stores(st.Node) {
		strat := s.Strategy()
		switch {
		case strat.Mode == lineage.Comp:
			comp = s
		case d == Backward && strat.Orient == lineage.BackwardOpt,
			d == Forward && strat.Orient == lineage.ForwardOpt && strat.Mode == lineage.Full:
			matched = append(matched, s)
		default:
			mismatched = append(mismatched, s)
		}
	}
	if _, isPM := node.Op.(workflow.PayloadMapper); comp != nil && isPM {
		store := comp
		cands = append(cands, candidate{
			label: fmt.Sprintf("%s(%s)", PathComposite, store.Strategy()),
			cost:  e.storeCost(d, store, opStats, n, true),
			run: func(abort func() bool) error {
				return e.runComposite(sp, d, st, node, mc, store, cur, next, abort)
			},
		})
	}
	for _, s := range matched {
		store := s
		cands = append(cands, candidate{
			label: fmt.Sprintf("%s(%s)", PathStore, store.Strategy()),
			cost:  e.storeCost(d, store, opStats, n, true),
			run: func(abort func() bool) error {
				return e.runStore(sp, d, st, node, mc, store, cur, next, abort)
			},
		})
	}
	for _, s := range mismatched {
		store := s
		cands = append(cands, candidate{
			label: fmt.Sprintf("%s(%s)", PathStoreScan, store.Strategy()),
			cost:  e.storeCost(d, store, opStats, n, false),
			run: func(abort func() bool) error {
				return e.runStore(sp, d, st, node, mc, store, cur, next, abort)
			},
		})
	}

	// Black-box re-execution: always available.
	cands = append(cands, candidate{
		label: PathReexec,
		cost:  e.reexecEstimate(st.Node),
		run: func(abort func() bool) error {
			return e.runReexec(ctx, d, st, cur, next, report)
		},
	})
	return cands
}

func (e *Executor) hasMapper(d Direction, node *workflow.Node) bool {
	if d == Backward {
		_, ok := node.Op.(workflow.BackwardMapper)
		return ok
	}
	_, ok := node.Op.(workflow.ForwardMapper)
	return ok
}

// runMap resolves a step with pure mapping functions, closing early once
// the destination saturates.
func (e *Executor) runMap(d Direction, st Step, node *workflow.Node, mc *workflow.MapCtx, cur, next *bitmap.Bitmap, abort func() bool) error {
	var buf []uint64
	var stepErr error
	n := 0
	cur.Iterate(func(cell uint64) bool {
		if n++; n%64 == 0 {
			if next.Full() {
				return false // early close
			}
			if abort != nil && abort() {
				stepErr = lineage.ErrAborted
				return false
			}
		}
		if d == Backward {
			buf = node.Op.(workflow.BackwardMapper).MapB(mc, cell, st.InputIdx, buf[:0])
		} else {
			buf = node.Op.(workflow.ForwardMapper).MapF(mc, cell, st.InputIdx, buf[:0])
		}
		next.SetCells(buf)
		return true
	})
	return stepErr
}

// runStore resolves a step against one materialized store (matched or
// mismatched orientation — the store handles both).
func (e *Executor) runStore(sp *trace.Span, d Direction, st Step, node *workflow.Node, mc *workflow.MapCtx, store *lineage.Store, cur, next *bitmap.Bitmap, abort func() bool) error {
	mapp := e.payloadFn(node, mc)
	if d == Backward {
		return store.BackwardSpan(sp, cur, next, st.InputIdx, mapp, nil, abort)
	}
	return store.ForwardSpan(sp, cur, next, st.InputIdx, mapp, abort)
}

// runComposite resolves a step against a composite store: stored payload
// pairs override the operator's default mapping (paper §V-A4).
func (e *Executor) runComposite(sp *trace.Span, d Direction, st Step, node *workflow.Node, mc *workflow.MapCtx, store *lineage.Store, cur, next *bitmap.Bitmap, abort func() bool) error {
	mapp := e.payloadFn(node, mc)
	if d == Backward {
		covered := stepPool.Get(mc.OutSpace)
		defer stepPool.Put(covered)
		if err := store.BackwardSpan(sp, cur, next, st.InputIdx, mapp, covered, abort); err != nil {
			return err
		}
		// Default mapping for the query cells no payload pair covered.
		bm, ok := node.Op.(workflow.BackwardMapper)
		if !ok {
			return fmt.Errorf("composite operator %s lacks map_b", node.Op.Name())
		}
		var buf []uint64
		var stepErr error
		n := 0
		cur.Iterate(func(cell uint64) bool {
			if covered.Get(cell) {
				return true
			}
			if n++; n%64 == 0 {
				if next.Full() {
					return false
				}
				if abort != nil && abort() {
					stepErr = lineage.ErrAborted
					return false
				}
			}
			buf = bm.MapB(mc, cell, st.InputIdx, buf[:0])
			next.SetCells(buf)
			return true
		})
		return stepErr
	}

	// Forward: payload pairs are scanned by the store; output cells not
	// covered by any payload pair keep the default forward mapping.
	if err := store.ForwardSpan(sp, cur, next, st.InputIdx, mapp, abort); err != nil {
		return err
	}
	fm, ok := node.Op.(workflow.ForwardMapper)
	if !ok {
		return fmt.Errorf("composite operator %s lacks map_f", node.Op.Name())
	}
	var buf []uint64
	var stepErr error
	n := 0
	cur.Iterate(func(cell uint64) bool {
		if n++; n%64 == 0 {
			if next.Full() {
				return false
			}
			if abort != nil && abort() {
				stepErr = lineage.ErrAborted
				return false
			}
		}
		buf = fm.MapF(mc, cell, st.InputIdx, buf[:0])
		for _, out := range buf {
			if next.Get(out) {
				continue
			}
			inStore, err := store.ContainsOut(out)
			if err != nil {
				stepErr = err
				return false
			}
			if !inStore {
				next.Set(out)
			}
		}
		return true
	})
	return stepErr
}

// runReexec re-runs the operator in tracing mode and joins the streamed
// region pairs with the query cells (paper §V-B). Operators that cannot
// trace resolve conservatively to the entire destination array.
func (e *Executor) runReexec(ctx context.Context, d Direction, st Step, cur, next *bitmap.Bitmap, report *StepReport) error {
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
	_, err := e.run.Reexecute(ctx, st.Node, sink)
	switch {
	case err == nil || errors.Is(err, errTraceDone):
		return nil
	case errors.Is(err, workflow.ErrNoTracing):
		// No lineage API at all: assume all-to-all (paper §IV).
		next.SetAll()
		report.AccessPath = PathConservative
		return nil
	default:
		return err
	}
}

// payloadFn adapts the operator's MapP to the store-level callback.
func (e *Executor) payloadFn(node *workflow.Node, mc *workflow.MapCtx) lineage.PayloadFn {
	pm, ok := node.Op.(workflow.PayloadMapper)
	if !ok {
		return nil
	}
	return func(out uint64, payload []byte, inputIdx int, dst []uint64) []uint64 {
		return pm.MapP(mc, out, payload, inputIdx, dst)
	}
}
