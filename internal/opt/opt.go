// Package opt implements SubZero's lineage strategy optimizer (paper
// §VII): given per-operator statistics from a profiling run, a sample
// lineage query workload, and user storage/runtime constraints, it chooses
// the set of storage strategies per operator that minimizes expected
// workload query cost.
//
// The program is the paper's 0/1 integer program:
//
//	min_x  Σ_i p_i · min_{j | x_ij=1} q_ij  +  ε·Σ_ij (disk_ij + β·run_ij)·x_ij
//	s.t.   Σ_ij disk_ij·x_ij ≤ MaxDISK
//	       Σ_ij run_ij·x_ij  ≤ MaxRUNTIME
//	       ∀i: Σ_j x_ij ≥ 1
//	       x_ij = 1 for user-forced strategies
//
// with one refinement: the min-term is split by query direction, because
// the query processor picks the cheapest *chosen* strategy per query, and
// a backward-optimized store answers backward queries cheaply while being
// useless for forward ones (this is what makes "store both orientations"
// configurations like the paper's FullBoth/SubZero20 worthwhile).
//
// Operators interact only through the two budget sums, so the program is
// solved exactly without an LP solver (frontier.go): each operator
// contributes a short list of selections — its cheapest backward and
// forward strategies plus the forced ones — and operators are merged one
// at a time, keeping only the (disk, runtime, objective) partial plans no
// other partial plan dominates.
package opt

import (
	"context"
	"fmt"
	"time"

	"subzero/internal/lineage"
	"subzero/internal/query"
	"subzero/internal/workflow"
)

// Constraints are the user-specified resource limits (paper Figure 3:
// "Constraints" input to the Optimizer).
type Constraints struct {
	// MaxDiskBytes bounds total lineage storage; <= 0 means unbounded.
	MaxDiskBytes int64
	// MaxRuntime bounds total lineage-capture overhead per workflow run;
	// <= 0 means unbounded.
	MaxRuntime time.Duration
	// Beta weights runtime overhead against disk in the objective's
	// tiebreak term (paper's β). Zero means 1.0.
	Beta float64
}

// Choice records the optimizer's decision and estimates for one strategy.
type Choice struct {
	Strategy  lineage.Strategy
	DiskBytes int64
	Runtime   time.Duration
	QBackward time.Duration // est. backward query cost at this operator
	QForward  time.Duration // est. forward query cost at this operator
	Chosen    bool
}

// Report explains an optimization outcome.
type Report struct {
	Plan      workflow.Plan
	PerNode   map[string][]Choice
	Objective float64
	DiskBytes int64         // total estimated disk of the chosen plan
	Runtime   time.Duration // total estimated runtime overhead
	SolveTime time.Duration
}

// Optimizer chooses lineage strategies for a workflow using statistics
// from a profiling run.
type Optimizer struct {
	run    *workflow.Run
	stats  *lineage.Collector
	forced map[string][]lineage.Strategy
}

// New creates an optimizer over a profiling run. The run should have
// materialized each lineage-aware operator's richest supported lineage
// (e.g., Full plus its payload mode) so volumes and write times are
// measured rather than guessed; operators without profiled stores fall
// back to conservative estimates.
func New(run *workflow.Run, stats *lineage.Collector) *Optimizer {
	return &Optimizer{run: run, stats: stats, forced: map[string][]lineage.Strategy{}}
}

// Force pins strategies for a node (paper: "users can manually specify
// operator specific strategies prior to running the optimizer").
func (o *Optimizer) Force(nodeID string, strategies ...lineage.Strategy) {
	o.forced[nodeID] = append(o.forced[nodeID], strategies...)
}

// Choose finds the minimum-objective plan for the given sample workload
// and constraints and returns it with a report. The context is checked
// before each node is priced and merged; cancellation returns a wrapped
// ctx.Err(). Constraints no plan meets return an error that says
// "infeasible".
func (o *Optimizer) Choose(ctx context.Context, workload []query.Query, cons Constraints) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(workload) == 0 {
		return nil, fmt.Errorf("opt: empty sample workload")
	}
	nodes, profiles, err := o.profiles()
	if err != nil {
		return nil, err
	}
	wl := analyzeWorkload(workload)

	start := time.Now()
	perNode := make(map[string][]Choice, len(nodes))
	f := newFrontier(cons)
	for _, nodeID := range nodes {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("opt: cancelled at node %q: %w", nodeID, err)
		}
		cands := o.candidates(nodeID, profiles[nodeID], wl)
		cands = pruneCandidates(cands, wl, o.forced[nodeID], cons)
		perNode[nodeID] = cands
		if err := f.add(nodeID, cands, wl.pBackward(nodeID), wl.pForward(nodeID), o.forced[nodeID]); err != nil {
			return nil, err
		}
	}
	rep := f.report(nodes, perNode)
	rep.SolveTime = time.Since(start)
	return rep, nil
}
