// Package query implements SubZero's lineage query executor (paper §IV,
// §VI-C, §VII-A).
//
// A lineage query starts from a set of cells and traces them through a
// path of operators, either backward (from an operator's output toward
// workflow inputs) or forward (from an operator's input toward workflow
// outputs). The executor resolves one path step at a time, holding each
// intermediate result in an in-memory boolean array (bitmap) over the
// corresponding array's shape — deduplicating the large fan-in/fan-out
// result sets, closing a step early once every possible cell is set, and
// enabling the entire-array optimization for all-to-all operators.
//
// At each step the executor chooses among the operator's available access
// paths: mapping functions, materialized lineage stores (matched or
// mismatched orientation), composite store + default mapping, or black-box
// re-execution in tracing mode. With the query-time optimizer enabled it
// picks the cheapest estimated path and monitors execution, dynamically
// falling back to re-execution so that worst-case cost stays within ~2× of
// black-box (paper §VII-A).
package query

import (
	"context"
	"fmt"
	"time"

	"subzero/internal/bitmap"
	"subzero/internal/grid"
	"subzero/internal/lineage"
	"subzero/internal/obs"
	"subzero/internal/trace"
	"subzero/internal/workflow"
)

// Direction distinguishes backward from forward lineage queries.
type Direction int

// Query directions.
const (
	// Backward traces output cells to the input cells that produced them.
	Backward Direction = iota
	// Forward traces input cells to the output cells they influenced.
	Forward
)

func (d Direction) String() string {
	if d == Forward {
		return "forward"
	}
	return "backward"
}

// Step is one (operator, input index) element of a query path — the
// (P_i, idx_i) pairs of execute_query (paper §IV).
type Step struct {
	Node     string
	InputIdx int
}

// Query is a lineage query: starting cells plus the operator path to trace
// through. For a backward query the cells lie in Path[0].Node's output
// array; for a forward query they lie in Path[0].Node's InputIdx'th input
// array.
type Query struct {
	Direction Direction
	Cells     []uint64
	Path      []Step
}

// Options configure the executor.
type Options struct {
	// EntireArray enables the entire-array optimization for annotated
	// all-to-all operators (on by default via DefaultOptions; the paper's
	// FQ0-Slow measurement disables it).
	EntireArray bool
	// Dynamic enables the query-time optimizer: cost-based access-path
	// choice with monitored fallback to re-execution. When false the
	// executor statically prefers materialized lineage, reproducing the
	// mismatched-index pathologies of Figure 6(b).
	Dynamic bool
}

// DefaultOptions enables every optimization.
func DefaultOptions() Options { return Options{EntireArray: true, Dynamic: true} }

// StepReport records how one path step was executed.
type StepReport struct {
	Node       string
	InputIdx   int
	AccessPath string
	InCells    uint64
	OutCells   uint64
	Elapsed    time.Duration
	FellBack   bool // dynamic fallback to re-execution occurred
}

// Result is a completed lineage query: the final cell set plus per-step
// diagnostics.
type Result struct {
	Bitmap  *bitmap.Bitmap
	Steps   []StepReport
	Elapsed time.Duration
}

// Cells returns the result's cell indices in ascending order.
func (r *Result) Cells() []uint64 { return r.Bitmap.Cells(nil) }

// Executor executes lineage queries against one workflow run.
//
// Executors are safe for concurrent use, and several executors over the
// same run may execute queries in parallel: per-query state is local to
// each Execute call, and run state (lineage stores, statistics) is read
// through internally synchronized paths.
type Executor struct {
	run    *workflow.Run
	stats  *lineage.Collector
	opts   Options
	obs    *obs.QueryObs
	healer Healer
}

// Healer is notified when a query trips over a corrupt lineage store.
// The store has already latched its degraded flag; the healer's job is
// to schedule a background rebuild. Implementations must deduplicate
// concurrent notifications themselves (Store.BeginHeal is the intended
// claim mechanism) and must not block: it is called on the query path.
type Healer func(nodeID string, st *lineage.Store)

// New creates an executor over a run. stats may be nil to skip collection.
func New(run *workflow.Run, stats *lineage.Collector, opts Options) *Executor {
	if stats == nil {
		stats = lineage.NewCollector()
	}
	return &Executor{run: run, stats: stats, opts: opts}
}

// WithObs attaches query metrics (workload mix, latency, per-class step
// series) and returns the executor for chaining. A nil bundle leaves the executor
// unobserved with zero overhead.
func (e *Executor) WithObs(o *obs.QueryObs) *Executor {
	e.obs = o
	return e
}

// WithHealer attaches a corruption-recovery hook and returns the
// executor for chaining. A nil healer (the default) means corrupt
// stores still degrade and queries still fall back to re-execution,
// but nothing schedules a rebuild.
func (e *Executor) WithHealer(h Healer) *Executor {
	e.healer = h
	return e
}

// notifyDegraded hands every degraded store of a node to the healer.
func (e *Executor) notifyDegraded(nodeID string) {
	if e.healer == nil {
		return
	}
	for _, st := range e.run.Stores(nodeID) {
		if st.Degraded() {
			e.healer(nodeID, st)
		}
	}
}

// Validate checks that the query's path follows actual workflow edges and
// its cells fit the starting array.
func (e *Executor) Validate(q Query) error {
	if len(q.Path) == 0 {
		return fmt.Errorf("query: empty path")
	}
	spec := e.run.Spec
	for i, st := range q.Path {
		node := spec.Node(st.Node)
		if node == nil {
			return fmt.Errorf("query: unknown node %q", st.Node)
		}
		if st.InputIdx < 0 || st.InputIdx >= node.Op.NumInputs() {
			return fmt.Errorf("query: step %d input index %d out of range for %s", i, st.InputIdx, st.Node)
		}
		if i == len(q.Path)-1 {
			break
		}
		next := q.Path[i+1]
		if q.Direction == Backward {
			// The next operator must produce this step's traced input.
			if node.Inputs[st.InputIdx].Node != next.Node {
				return fmt.Errorf("query: step %d: input %d of %s is not produced by %s",
					i, st.InputIdx, st.Node, next.Node)
			}
		} else {
			// This operator's output must feed the next step's input.
			nextNode := spec.Node(next.Node)
			if nextNode == nil {
				return fmt.Errorf("query: unknown node %q", next.Node)
			}
			if nextNode.Inputs[next.InputIdx].Node != st.Node {
				return fmt.Errorf("query: step %d: output of %s does not feed input %d of %s",
					i, st.Node, next.InputIdx, next.Node)
			}
		}
	}
	startSpace, err := e.stepSourceSpace(q.Direction, q.Path[0])
	if err != nil {
		return err
	}
	for _, c := range q.Cells {
		if c >= startSpace.Size() {
			return fmt.Errorf("query: cell %d outside starting array (size %d)", c, startSpace.Size())
		}
	}
	return nil
}

// stepSourceSpace returns the space the step's query cells live in.
func (e *Executor) stepSourceSpace(d Direction, st Step) (*grid.Space, error) {
	mc, err := e.run.MapCtx(st.Node)
	if err != nil {
		return nil, err
	}
	if d == Backward {
		return mc.OutSpace, nil
	}
	return mc.InSpaces[st.InputIdx], nil
}

// stepDestSpace returns the space the step's result lives in.
func (e *Executor) stepDestSpace(d Direction, st Step) (*grid.Space, error) {
	mc, err := e.run.MapCtx(st.Node)
	if err != nil {
		return nil, err
	}
	if d == Backward {
		return mc.InSpaces[st.InputIdx], nil
	}
	return mc.OutSpace, nil
}

// Execute runs the query and returns the final cell set.
//
// The context is checked at every path-step boundary and periodically
// during black-box re-execution; cancellation aborts the trace with a
// wrapped ctx.Err() identifying the step where work stopped.
func (e *Executor) Execute(ctx context.Context, q Query) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.Validate(q); err != nil {
		return nil, err
	}
	// Query span: every step span below parents under it via the context.
	// On the sampled-off path FromContext yields nil and the whole chain
	// costs nothing. The deferred End only closes the span of a query that
	// fails; a completed one is ended below on the query's own clock.
	start := time.Now()
	qsp := trace.FromContext(ctx).ChildNamed("query ", q.Direction.String(), obs.SpanQuery)
	qsp.SetAttr("run", e.run.ID)
	qsp.SetAttr("direction", q.Direction.String())
	qsp.SetAttrInt("cells", int64(len(q.Cells)))
	defer qsp.End()
	ctx = trace.ContextWithSpan(ctx, qsp)
	srcSpace, err := e.stepSourceSpace(q.Direction, q.Path[0])
	if err != nil {
		return nil, err
	}
	cur := stepPool.Get(srcSpace)
	cur.SetCells(q.Cells)
	res := &Result{}
	for _, st := range q.Path {
		if err := ctx.Err(); err != nil {
			stepPool.Put(cur)
			return nil, fmt.Errorf("query: cancelled at step %s[%d]: %w", st.Node, st.InputIdx, err)
		}
		report, next, err := e.executeStep(ctx, q.Direction, st, cur)
		if err != nil {
			stepPool.Put(cur)
			return nil, fmt.Errorf("query: step %s[%d]: %w", st.Node, st.InputIdx, err)
		}
		res.Steps = append(res.Steps, report)
		// The consumed intermediate goes back to the pool; the final
		// bitmap below is handed to the caller and never recycled.
		stepPool.Put(cur)
		cur = next
		if cur.Empty() {
			break // nothing left to trace
		}
	}
	res.Bitmap = cur
	// One measurement per query, as per step: the result's Elapsed, the
	// query span's duration and the latency observation are the same
	// number, and the exemplar links that bucket to the retained trace so
	// a histogram spike points at evidence.
	res.Elapsed = time.Since(start)
	qsp.EndAt(start, res.Elapsed)
	if e.obs != nil {
		e.obs.RecordQuery(int(q.Direction), res.Elapsed, q.Cells, qsp.TraceIDString())
	}
	return res, nil
}
