package opt

import (
	"sort"
	"time"

	"subzero/internal/lineage"
	"subzero/internal/query"
	"subzero/internal/workflow"
)

// nodeProfile is what the statistics collector and profiling stores know
// about one operator instance.
type nodeProfile struct {
	nodeID string
	op     workflow.Operator

	exec time.Duration // average execution time (re-execution cost basis)

	// Full-pair volumes (from a profiled Full store or collector stats).
	pairs    float64
	outCells float64
	inCells  float64

	// Payload volumes (from a profiled Pay/Comp store).
	payPairs    float64
	payOutCells float64
	payBytes    float64

	// measured holds exact (size, write time) per profiled strategy.
	measured map[lineage.Strategy]measuredStore
}

type measuredStore struct {
	bytes     int64
	writeTime time.Duration
}

// profiles gathers a nodeProfile for every node in the run, in
// deterministic order.
func (o *Optimizer) profiles() ([]string, map[string]*nodeProfile, error) {
	var nodes []string
	out := make(map[string]*nodeProfile)
	for _, n := range o.run.Spec.Nodes() {
		nodes = append(nodes, n.ID)
		st := o.stats.Get(n.ID)
		p := &nodeProfile{
			nodeID:   n.ID,
			op:       n.Op,
			exec:     st.AvgExecTime(),
			measured: make(map[lineage.Strategy]measuredStore),
		}
		for _, store := range o.run.Stores(n.ID) {
			ss := store.Stats()
			// Runtime overhead is costed from the per-shard ingest stats,
			// not the raw serial WriteTime: under sharded ingest the
			// encode work spreads across workers and the operator thread
			// pays only enqueue + drain, so the wall-clock a strategy
			// adds is the critical path of the two sides.
			p.measured[store.Strategy()] = measuredStore{bytes: store.SizeBytes(), writeTime: ss.CriticalWriteTime()}
			switch store.Strategy().Mode {
			case lineage.Full:
				p.pairs = float64(ss.Pairs)
				p.outCells = float64(ss.OutCells)
				p.inCells = float64(ss.InCells)
			case lineage.Pay, lineage.Comp:
				p.payPairs = float64(ss.Pairs)
				p.payOutCells = float64(ss.OutCells)
				p.payBytes = float64(ss.PayloadBytes)
			}
		}
		// Fall back to collector volumes, then to the conservative
		// all-to-all assumption for operators never profiled.
		if p.pairs == 0 && st.Pairs > 0 && st.Runs > 0 {
			p.pairs = float64(st.Pairs) / float64(st.Runs)
			p.outCells = float64(st.OutCells) / float64(st.Runs)
			p.inCells = float64(st.InCells) / float64(st.Runs)
		}
		if p.pairs == 0 {
			mc, err := o.run.MapCtx(n.ID)
			if err != nil {
				return nil, nil, err
			}
			p.pairs = 1
			p.outCells = float64(mc.OutSpace.Size())
			for _, sp := range mc.InSpaces {
				p.inCells += float64(sp.Size())
			}
		}
		if p.payPairs == 0 {
			// Assume payload lineage would mirror full lineage with a
			// small constant payload.
			p.payPairs = p.pairs
			p.payOutCells = p.outCells
			p.payBytes = p.pairs * 4
		}
		out[n.ID] = p
	}
	sort.Strings(nodes)
	return nodes, out, nil
}

// workloadInfo summarizes the sample workload: per-node touch
// probabilities split by direction, and the average query size.
type workloadInfo struct {
	total    int
	backward map[string]int // node -> #backward queries touching it
	forward  map[string]int
	avgCells float64
	hasBwd   bool
	hasFwd   bool
}

func analyzeWorkload(workload []query.Query) *workloadInfo {
	wl := &workloadInfo{
		total:    len(workload),
		backward: map[string]int{},
		forward:  map[string]int{},
	}
	totalCells := 0
	for _, q := range workload {
		totalCells += len(q.Cells)
		seen := map[string]bool{}
		for _, st := range q.Path {
			if seen[st.Node] {
				continue
			}
			seen[st.Node] = true
			if q.Direction == query.Backward {
				wl.backward[st.Node]++
				wl.hasBwd = true
			} else {
				wl.forward[st.Node]++
				wl.hasFwd = true
			}
		}
	}
	wl.avgCells = float64(totalCells) / float64(len(workload))
	if wl.avgCells < 1 {
		wl.avgCells = 1
	}
	return wl
}

// pBackward returns p_i restricted to backward queries.
func (wl *workloadInfo) pBackward(nodeID string) float64 {
	return float64(wl.backward[nodeID]) / float64(wl.total)
}

// pForward returns p_i restricted to forward queries.
func (wl *workloadInfo) pForward(nodeID string) float64 {
	return float64(wl.forward[nodeID]) / float64(wl.total)
}

// candidates enumerates every strategy the operator supports, with disk,
// runtime, and per-direction query-cost estimates.
func (o *Optimizer) candidates(nodeID string, p *nodeProfile, wl *workloadInfo) []Choice {
	cands := []Choice{o.estimate(p, lineage.StratBlackbox, wl)}
	if workflow.Supports(p.op, lineage.Map) {
		cands = append(cands, o.estimate(p, lineage.StratMap, wl))
	}
	if workflow.Supports(p.op, lineage.Full) {
		for _, s := range []lineage.Strategy{
			lineage.StratFullOne, lineage.StratFullMany,
			lineage.StratFullOneFwd, lineage.StratFullManyFwd,
		} {
			cands = append(cands, o.estimate(p, s, wl))
		}
	}
	if workflow.Supports(p.op, lineage.Pay) {
		cands = append(cands, o.estimate(p, lineage.StratPayOne, wl), o.estimate(p, lineage.StratPayMany, wl))
	}
	if workflow.Supports(p.op, lineage.Comp) {
		cands = append(cands, o.estimate(p, lineage.StratCompOne, wl), o.estimate(p, lineage.StratCompMany, wl))
	}
	return cands
}

// estimate computes the cost-model row for one (operator, strategy) pair.
func (o *Optimizer) estimate(p *nodeProfile, s lineage.Strategy, wl *workloadInfo) Choice {
	c := Choice{Strategy: s}
	c.DiskBytes, c.Runtime = o.overheads(p, s)
	c.QBackward = o.queryCost(p, s, wl, query.Backward)
	c.QForward = o.queryCost(p, s, wl, query.Forward)
	return c
}

// overheads estimates a strategy's storage and runtime overhead, using the
// profiling run's exact measurements when that strategy was profiled and
// the analytic model otherwise.
func (o *Optimizer) overheads(p *nodeProfile, s lineage.Strategy) (int64, time.Duration) {
	if m, ok := p.measured[s]; ok {
		return m.bytes, m.writeTime
	}
	var bytes float64
	var treeInserts float64
	switch {
	case s.Mode == lineage.Blackbox || s.Mode == lineage.Map:
		return 0, 0
	case s.Mode == lineage.Full && s.Enc == lineage.One && s.Orient == lineage.BackwardOpt:
		bytes = p.pairs*lineage.EstRecordOverhead +
			lineage.EstBytesPerCell*(p.outCells+p.inCells) +
			p.outCells*lineage.EstCellEntryBytes + p.pairs*lineage.EstIDEntryBytes
	case s.Mode == lineage.Full && s.Enc == lineage.One && s.Orient == lineage.ForwardOpt:
		bytes = p.pairs*lineage.EstRecordOverhead +
			lineage.EstBytesPerCell*(p.outCells+p.inCells) +
			p.inCells*(lineage.EstCellEntryBytes+lineage.EstIDEntryBytes)
	case s.Mode == lineage.Full && s.Enc == lineage.Many && s.Orient == lineage.BackwardOpt:
		bytes = p.pairs*(lineage.EstRecordOverhead+lineage.EstTreeEntryBytes) +
			lineage.EstBytesPerCell*(p.outCells+p.inCells)
		treeInserts = p.pairs
	case s.Mode == lineage.Full && s.Enc == lineage.Many && s.Orient == lineage.ForwardOpt:
		nIn := float64(p.op.NumInputs())
		bytes = p.pairs*(lineage.EstRecordOverhead+nIn*lineage.EstTreeEntryBytes) +
			lineage.EstBytesPerCell*(p.outCells+p.inCells)
		treeInserts = p.pairs * nIn
	case s.Enc == lineage.One: // PayOne / CompOne
		bytes = p.payOutCells*lineage.EstCellEntryBytes + p.payBytes + p.payPairs*lineage.EstPayEntryBytes
	default: // PayMany / CompMany
		bytes = p.payPairs*(lineage.EstRecordOverhead+lineage.EstTreeEntryBytes) +
			lineage.EstBytesPerCell*p.payOutCells + p.payBytes
		treeInserts = p.payPairs
	}
	pairs := p.pairs
	if s.Mode == lineage.Pay || s.Mode == lineage.Comp {
		pairs = p.payPairs
	}
	rt := time.Duration(bytes)*lineage.EstWritePerByte +
		time.Duration(pairs)*lineage.EstWritePerPair +
		time.Duration(treeInserts)*lineage.EstTreeInsert
	return int64(bytes), rt
}

// queryCost estimates the cost of one query step of the given direction at
// this operator under strategy s, for an average-size query.
func (o *Optimizer) queryCost(p *nodeProfile, s lineage.Strategy, wl *workloadInfo, d query.Direction) time.Duration {
	n := time.Duration(wl.avgCells)
	perPairB := time.Duration(p.inCells / p.pairs)
	perPairF := time.Duration(p.outCells / p.pairs)
	if perPairB == 0 {
		perPairB = 1
	}
	if perPairF == 0 {
		perPairF = 1
	}
	switch s.Mode {
	case lineage.Blackbox:
		return p.exec + time.Duration(p.pairs)*lineage.CostScanPair
	case lineage.Map:
		return n * lineage.CostMapCall
	}
	pairs := time.Duration(p.pairs)
	if s.Mode == lineage.Pay || s.Mode == lineage.Comp {
		pairs = time.Duration(p.payPairs)
	}
	matched := (d == query.Backward && s.Orient == lineage.BackwardOpt) ||
		(d == query.Forward && s.Orient == lineage.ForwardOpt && s.Mode == lineage.Full)
	if !matched {
		// Scan every pair, probing in situ on the containers; payload
		// modes additionally evaluate map_p per stored output cell.
		cost := pairs * lineage.CostProbePair
		if s.Mode == lineage.Pay || s.Mode == lineage.Comp {
			outsPerPair := time.Duration(p.payOutCells / p.payPairs)
			if outsPerPair == 0 {
				outsPerPair = 1
			}
			cost += pairs * outsPerPair * lineage.CostMapPCall
		}
		return cost
	}
	lookup := lineage.CostLookupOne
	if s.Enc == lineage.Many {
		lookup = lineage.CostLookupMany
	}
	per := perPairB
	if d == query.Forward {
		per = perPairF
	}
	cost := n*lookup + n*per*lineage.CostCellSet
	if s.Mode == lineage.Pay || s.Mode == lineage.Comp {
		cost += n * lineage.CostMapPCall
	}
	return cost
}

// pruneCandidates applies the paper's heuristic pruning: drop strategies
// that alone exceed the constraints, and pair-storing strategies that are
// not properly indexed for any query in the workload. Forced strategies
// are always kept; Blackbox and Map are never pruned.
func pruneCandidates(cands []Choice, wl *workloadInfo, forced []lineage.Strategy, cons Constraints) []Choice {
	isForced := func(s lineage.Strategy) bool {
		for _, f := range forced {
			if f == s {
				return true
			}
		}
		return false
	}
	out := cands[:0]
	for _, c := range cands {
		s := c.Strategy
		switch {
		case isForced(s) || !s.StoresPairs():
			out = append(out, c)
			continue
		case cons.MaxDiskBytes > 0 && c.DiskBytes > cons.MaxDiskBytes:
			continue
		case cons.MaxRuntime > 0 && c.Runtime > cons.MaxRuntime:
			continue
		}
		matchedSomething :=
			(wl.hasBwd && s.Orient == lineage.BackwardOpt) ||
				(wl.hasFwd && s.Orient == lineage.ForwardOpt)
		if !matchedSomething {
			continue
		}
		out = append(out, c)
	}
	return out
}
