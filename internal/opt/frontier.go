package opt

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"subzero/internal/lineage"
	"subzero/internal/workflow"
)

// Objective scaling: query costs in seconds; disk in megabytes and runtime
// in seconds enter only through the ε-weighted tiebreak term.
const (
	epsTiebreak = 1e-6
	mb          = 1024 * 1024
)

// point is one frontier entry: the disk, runtime and objective totals of a
// (partial) selection, and what is needed to recover it. For a per-node
// option only the totals and set are meaningful.
type point struct {
	disk int64
	run  time.Duration
	obj  float64
	set  uint32 // this node's selected candidates: bit j is candidate j
	prev int    // the partial plan this one extends, in the previous layer
}

// frontier is the exact strategy search. Nodes are added one at a time;
// layers[i] holds the non-dominated partial plans over the first i nodes,
// and layers[0] is the empty plan.
type frontier struct {
	cons   Constraints
	layers [][]point
}

func newFrontier(cons Constraints) *frontier {
	return &frontier{cons: cons, layers: [][]point{{{}}}}
}

// add extends every partial plan by every option of one node and keeps the
// non-dominated results. pB and pF are the fractions of the workload whose
// backward and forward queries touch the node. It fails if a forced
// strategy is not among cands, or if no partial plan fits the constraints:
// totals only grow, so the whole problem is then infeasible.
func (f *frontier) add(nodeID string, cands []Choice, pB, pF float64, forced []lineage.Strategy) error {
	opts, err := f.options(nodeID, cands, pB, pF, forced)
	if err != nil {
		return err
	}
	prev := f.layers[len(f.layers)-1]
	next := make([]point, 0, len(prev)*len(opts))
	for i, p := range prev {
		for _, o := range opts {
			next = append(next, point{disk: p.disk + o.disk, run: p.run + o.run, obj: p.obj + o.obj, set: o.set, prev: i})
		}
	}
	next = f.pareto(next)
	if len(next) == 0 {
		return fmt.Errorf("opt: infeasible: no plan for the nodes up to %q fits the constraints", nodeID)
	}
	f.layers = append(f.layers, next)
	return nil
}

// options lists the selections worth considering at one node. Every term
// of the objective is non-negative and the query processor uses only the
// cheapest selected strategy per direction, so any selection can shrink
// to its cheapest backward strategy, its cheapest forward strategy and the
// forced ones without raising the objective, the disk or the runtime:
// {a, b} ∪ forced over candidate pairs a ≤ b covers every optimum.
func (f *frontier) options(nodeID string, cands []Choice, pB, pF float64, forced []lineage.Strategy) ([]point, error) {
	var must uint32
	for _, s := range forced {
		j := slices.IndexFunc(cands, func(c Choice) bool { return c.Strategy == s })
		if j < 0 {
			return nil, fmt.Errorf("opt: forced strategy %s unavailable for node %s", s, nodeID)
		}
		must |= 1 << j
	}
	var opts []point
	add := func(set uint32) {
		if !slices.ContainsFunc(opts, func(o point) bool { return o.set == set }) {
			opts = append(opts, f.price(set, cands, pB, pF))
		}
	}
	// Singletons first, so an exact tie goes to the smaller selection.
	for a := range cands {
		add(must | 1<<a)
	}
	for a := range cands {
		for b := a + 1; b < len(cands); b++ {
			add(must | 1<<a | 1<<b)
		}
	}
	return f.pareto(opts), nil
}

// price evaluates the paper's objective for one node's selection:
// pB·min qB + pF·min qF + ε·Σ(diskMB + β·runSec).
func (f *frontier) price(set uint32, cands []Choice, pB, pF float64) point {
	p := point{set: set}
	beta := cmp.Or(f.cons.Beta, 1)
	qB, qF := math.Inf(1), math.Inf(1)
	for j, c := range cands {
		if set&(1<<j) == 0 {
			continue
		}
		p.disk += c.DiskBytes
		p.run += c.Runtime
		p.obj += epsTiebreak * (float64(c.DiskBytes)/mb + beta*c.Runtime.Seconds())
		qB = min(qB, c.QBackward.Seconds())
		qF = min(qF, c.QForward.Seconds())
	}
	p.obj += pB*qB + pF*qF
	return p
}

// pareto drops the points over a budget and every point another one
// dominates (no more disk, runtime and objective), reusing pts. Nothing
// is added to a plan's totals later except non-negative amounts, so a
// dominated plan never completes to something better than its dominator
// does: the pruning is exact. Points are ordered by (disk, runtime,
// objective) and the sort is stable, so of two equal points the one
// generated first — earlier parent, then earlier option — survives, and
// the result is deterministic.
func (f *frontier) pareto(pts []point) []point {
	slices.SortStableFunc(pts, func(a, b point) int {
		return cmp.Or(cmp.Compare(a.disk, b.disk), cmp.Compare(a.run, b.run), cmp.Compare(a.obj, b.obj))
	})
	out := pts[:0]
	for _, p := range pts {
		if f.cons.MaxDiskBytes > 0 && p.disk > f.cons.MaxDiskBytes {
			break
		}
		if f.cons.MaxRuntime > 0 && p.run > f.cons.MaxRuntime {
			continue
		}
		// Every kept point has no more disk than p.
		if !slices.ContainsFunc(out, func(k point) bool { return k.run <= p.run && k.obj <= p.obj }) {
			out = append(out, p)
		}
	}
	return out
}

// report follows the back-pointers from the minimum-objective plan — the
// first in layer order on a tie, i.e. the one with the least disk, then
// the least runtime — and marks its strategies chosen in perNode. nodes
// must be the order the nodes were added in.
func (f *frontier) report(nodes []string, perNode map[string][]Choice) *Report {
	last := f.layers[len(f.layers)-1]
	bi := 0
	for i, p := range last {
		if p.obj < last[bi].obj {
			bi = i
		}
	}
	rep := &Report{Plan: workflow.Plan{}, PerNode: perNode, Objective: last[bi].obj, DiskBytes: last[bi].disk, Runtime: last[bi].run}
	for i := len(nodes) - 1; i >= 0; i-- {
		p := f.layers[i+1][bi]
		cands := perNode[nodes[i]]
		var chosen []lineage.Strategy
		for j := range cands {
			if p.set&(1<<j) == 0 {
				continue
			}
			cands[j].Chosen = true
			if cands[j].Strategy != lineage.StratBlackbox {
				chosen = append(chosen, cands[j].Strategy)
			}
		}
		if len(chosen) > 0 {
			rep.Plan[nodes[i]] = chosen
		}
		bi = p.prev
	}
	return rep
}
