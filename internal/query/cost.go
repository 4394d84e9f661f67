package query

import (
	"time"

	"subzero/internal/bitmap"
	"subzero/internal/lineage"
	"subzero/internal/workflow"
)

// The query-time optimizer's cost model: per-unit constants live in
// internal/lineage (shared with the strategy optimizer); this file binds
// them to live stores and collector statistics.
const (
	cMapCall    = lineage.CostMapCall
	cCellSet    = lineage.CostCellSet
	cLookupOne  = lineage.CostLookupOne
	cLookupMany = lineage.CostLookupMany
	cScanPair   = lineage.CostScanPair
	cMapPCall   = lineage.CostMapPCall
)

// reexecEstimate is the cost of answering a step by re-running the
// operator: its measured average execution time (the statistics collector
// always has one run — the workflow execution itself) plus the join over
// the traced pairs. Operators that never materialized pairs (Map or
// Blackbox strategies report zero) still emit at least one pair per
// output cell in tracing mode, so the pair count is bounded below by the
// output size — without this, re-execution looks spuriously cheap and
// the dynamic optimizer prefers it over mapping functions on large
// intermediate sets.
func reexecEstimate(st *lineage.OpStats, mc *workflow.MapCtx) time.Duration {
	if st.Runs == 0 {
		return lineage.CostDefaultReexec
	}
	pairs := st.Pairs / int64(st.Runs)
	if pairs == 0 {
		pairs = int64(mc.OutSpace.Size())
	}
	return st.AvgExecTime() + time.Duration(pairs)*lineage.CostTraceJoin
}

// storeCost estimates resolving n query cells against a store.
func storeCost(d Direction, store *lineage.Store, n time.Duration, matched bool) time.Duration {
	ss := store.Stats()
	pairs := time.Duration(ss.Pairs)
	if pairs == 0 {
		pairs = 1
	}
	// Average result cells contributed per hit pair.
	var perPair time.Duration
	if d == Backward {
		perPair = time.Duration(ss.InCells) / pairs
	} else {
		perPair = time.Duration(ss.OutCells) / pairs
	}
	if perPair == 0 {
		perPair = 1
	}
	strat := store.Strategy()
	if !matched {
		// Mismatched orientation: full scan of every record, plus map_p
		// evaluation per output cell for payload encodings.
		cost := pairs * cScanPair
		if strat.Mode == lineage.Pay || strat.Mode == lineage.Comp {
			outsPerPair := time.Duration(ss.OutCells) / pairs
			if outsPerPair == 0 {
				outsPerPair = 1
			}
			cost += pairs * outsPerPair * cMapPCall
		}
		return cost + pairs*perPair*cCellSet/4
	}
	lookup := cLookupOne
	if strat.Enc == lineage.Many {
		lookup = cLookupMany
	}
	cost := n*lookup + n*perPair*cCellSet
	if strat.Mode == lineage.Pay || strat.Mode == lineage.Comp {
		cost += n * cMapPCall
	}
	return cost
}

// probeMapFan estimates the per-cell fan of a mapping function by mapping
// one sample query cell — mapping functions are pure and cheap, so a
// single probe is an adequate estimator for the cost model. A declared
// geometry is probed through CoverCell on the step bitmaps' scratch, so
// it needs no private MapCtx.
func probeMapFan(d Direction, node *workflow.Node, maps *stepMaps, inputIdx int, cur, next *bitmap.Bitmap) float64 {
	if cur.Empty() {
		return 1
	}
	var sample uint64
	cur.Iterate(func(c uint64) bool { sample = c; return false })
	if maps.geom != nil {
		dst := next.ScratchRect()
		if workflow.CoverCell(maps.geom, maps.shared, d == Backward, sample, inputIdx, cur.ScratchRect().Lo, dst) {
			return float64(dst.Area())
		}
		return 1
	}
	if out := cellMapper(d, node)(maps.private(), sample, inputIdx, nil); len(out) > 0 {
		return float64(len(out))
	}
	return 1
}
