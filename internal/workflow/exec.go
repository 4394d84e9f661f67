package workflow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"subzero/internal/array"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
	"subzero/internal/obs"
	"subzero/internal/trace"
)

// Plan assigns each node the lineage strategies it stores — the output of
// the strategy optimizer (or a hand-picked configuration such as the
// paper's Table II rows). Nodes absent from the plan default to Blackbox.
type Plan map[string][]lineage.Strategy

// Strategies returns the node's assigned strategies (Blackbox by default).
func (p Plan) Strategies(nodeID string) []lineage.Strategy {
	if s, ok := p[nodeID]; ok && len(s) > 0 {
		return s
	}
	return []lineage.Strategy{lineage.StratBlackbox}
}

// ErrNoTracing is returned by Run.Reexecute when the operator supports
// only Blackbox lineage: it cannot emit region pairs even in tracing mode,
// so the caller must assume an all-to-all relationship (paper §IV: "If the
// API is not used, then SubZero assumes an all-to-all relationship").
var ErrNoTracing = errors.New("workflow: operator does not support tracing mode")

// Executor runs workflow specifications with lineage capture. It owns the
// versioned array store (inputs, intermediates, outputs), the kvstore
// manager providing per-operator lineage datastores, and the statistics
// collector feeding the optimizer.
//
// An Executor is safe for concurrent use: run IDs are drawn atomically and
// the array store, kvstore manager, and collector synchronize internally.
// Each Execute call builds an independent *Run.
type Executor struct {
	versions *array.Versions
	manager  *kvstore.Manager
	stats    *lineage.Collector
	runSeq   atomic.Int64

	// healSeq distinguishes the kvstore namespaces of successive store
	// rebuilds, so a rebuild never reopens the corrupt log it replaces.
	healSeq atomic.Int64
}

// NewExecutor creates an executor.
func NewExecutor(versions *array.Versions, manager *kvstore.Manager, stats *lineage.Collector) *Executor {
	return &Executor{versions: versions, manager: manager, stats: stats}
}

// Stats exposes the statistics collector.
func (e *Executor) Stats() *lineage.Collector { return e.stats }

// Run is one executed workflow instance: its resolved inputs, outputs, and
// lineage stores, with everything needed to re-run any operator in tracing
// mode.
type Run struct {
	ID   string
	Spec *Spec
	Plan Plan

	inputs  map[string][]*array.Array
	outputs map[string]*array.Array
	mapCtxs map[string]*MapCtx

	// storesMu guards the stores map once the run is live: queries read
	// it while a background rebuild (Executor.RebuildStore) swaps a
	// degraded store for its healed replacement.
	storesMu sync.RWMutex
	stores   map[string][]*lineage.Store

	// Elapsed is total workflow wall-clock time; LineageOverhead is the
	// part spent inside the lwrite API and store flushes.
	Elapsed         time.Duration
	LineageOverhead time.Duration

	stats *lineage.Collector
}

// Execute runs the workflow over the named source arrays under the given
// strategy plan. Source arrays are registered in the versioned store, as
// are all intermediate and final outputs.
//
// The context is checked at every operator boundary: if it is cancelled or
// its deadline passes, execution stops before the next operator runs and
// the wrapped ctx.Err() names the node where work stopped.
func (e *Executor) Execute(ctx context.Context, spec *Spec, plan Plan, sources map[string]*array.Array) (*Run, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if plan == nil {
		plan = Plan{}
	}
	order, err := spec.TopoOrder()
	if err != nil {
		return nil, err
	}
	run := &Run{
		ID:      fmt.Sprintf("%s-run%03d", spec.Name, e.runSeq.Add(1)),
		Spec:    spec,
		Plan:    plan,
		inputs:  make(map[string][]*array.Array),
		outputs: make(map[string]*array.Array),
		stores:  make(map[string][]*lineage.Store),
		mapCtxs: make(map[string]*MapCtx),
		stats:   e.stats,
	}
	for name, src := range sources {
		e.versions.Put(src.WithName(name))
	}
	esp := trace.FromContext(ctx).ChildNamed("execute ", spec.Name, obs.SpanExecute)
	esp.SetAttr("run", run.ID)
	esp.SetAttrInt("nodes", int64(len(order)))
	defer esp.End()
	start := time.Now()
	for _, node := range order {
		if err := ctx.Err(); err != nil {
			e.releasePartial(run)
			return nil, fmt.Errorf("workflow: cancelled at node %q: %w", node.ID, err)
		}
		if err := e.runNode(esp, run, node, sources); err != nil {
			e.releasePartial(run)
			return nil, fmt.Errorf("workflow: node %q: %w", node.ID, err)
		}
	}
	run.Elapsed = time.Since(start)
	return run, nil
}

// ReleaseRun frees everything a run materialized under its ID — the
// intermediate and final array versions and every lineage store. Source
// arrays registered under their own names are shared across runs and are
// left in place. The run registry calls this from DropRun; Execute calls
// it on its own abort path, where the run is never returned and its ID
// would otherwise be unknowable to the caller.
func (e *Executor) ReleaseRun(runID string) error {
	prefix := runID + "/"
	e.versions.DropPrefix(prefix)
	_, err := e.manager.DropPrefix(prefix)
	return err
}

// releasePartial is ReleaseRun for an aborted execution: close errors on
// a partial run's stores are not actionable by the caller, who already
// has the execution error, so they are dropped.
func (e *Executor) releasePartial(run *Run) {
	_ = e.ReleaseRun(run.ID)
}

func (e *Executor) runNode(sp *trace.Span, run *Run, node *Node, sources map[string]*array.Array) error {
	nsp := sp.ChildNamed("node ", node.ID, obs.SpanNode)
	defer nsp.End()
	ins, err := e.resolveInputs(run, node, sources)
	if err != nil {
		return err
	}
	inShapes := make([]grid.Shape, len(ins))
	inSpaces := make([]*grid.Space, len(ins))
	for i, a := range ins {
		inShapes[i] = a.Shape()
		inSpaces[i] = a.Space()
	}
	outShape, err := node.Op.OutShape(inShapes)
	if err != nil {
		return err
	}
	outSpace := grid.NewSpace(outShape)

	// A builder for every pair-materializing strategy.
	var builders []*lineage.Builder
	var modes lineage.ModeSet
	for _, strat := range run.Plan.Strategies(node.ID) {
		if err := strat.Validate(); err != nil {
			return err
		}
		if !Supports(node.Op, strat.Mode) {
			return fmt.Errorf("operator %s does not support %s lineage", node.Op.Name(), strat.Mode)
		}
		if !strat.StoresPairs() {
			continue
		}
		ns := fmt.Sprintf("%s/%s/%s", run.ID, node.ID, strat.ID())
		kv, err := e.manager.Open(ns)
		if err != nil {
			return err
		}
		b, err := lineage.NewBuilder(kv, strat, outSpace, inSpaces)
		if err != nil {
			return err
		}
		builders = append(builders, b)
		modes = modes.With(strat.Mode)
	}

	var writer *lineage.Writer
	if len(builders) > 0 {
		writer = lineage.NewWriter(outSpace, inSpaces, builders, nil)
	}
	rc := NewRunCtx(modes, writer)

	start := time.Now()
	out, err := node.Op.Run(rc, ins)
	if err != nil {
		return err
	}
	if out == nil {
		return fmt.Errorf("operator %s returned no output", node.Op.Name())
	}
	if !out.Shape().Equal(outShape) {
		return fmt.Errorf("operator %s produced shape %v, declared %v", node.Op.Name(), out.Shape(), outShape)
	}
	var lineageTime time.Duration
	var pairs, outCells, inCells, payloadBytes int64
	if writer != nil {
		stores, err := writer.Flush()
		if err != nil {
			return err
		}
		// The run holds flushed stores only.
		run.stores[node.ID] = stores
		lineageTime = writer.Elapsed()
		for _, st := range stores {
			ss := st.Stats()
			pairs = max64(pairs, int64(ss.Pairs))
			outCells = max64(outCells, ss.OutCells)
			inCells = max64(inCells, ss.InCells)
			payloadBytes = max64(payloadBytes, ss.PayloadBytes)
		}
	}
	elapsed := time.Since(start)
	run.LineageOverhead += lineageTime
	execTime := elapsed - lineageTime
	if execTime < 0 {
		execTime = 0
	}
	e.stats.RecordRun(node.ID, execTime, lineageTime, pairs, outCells, inCells, payloadBytes)

	run.inputs[node.ID] = ins
	run.outputs[node.ID] = out
	run.mapCtxs[node.ID] = NewMapCtx(outSpace, inSpaces)
	e.versions.Put(out.WithName(run.ID + "/" + node.ID))
	return nil
}

func (e *Executor) resolveInputs(run *Run, node *Node, sources map[string]*array.Array) ([]*array.Array, error) {
	ins := make([]*array.Array, len(node.Inputs))
	for i, in := range node.Inputs {
		switch {
		case in.Node != "":
			out, ok := run.outputs[in.Node]
			if !ok {
				return nil, fmt.Errorf("input %d: node %q has not produced output", i, in.Node)
			}
			ins[i] = out
		default:
			src, ok := sources[in.External]
			if !ok {
				// Fall back to the versioned store for arrays produced
				// by earlier runs.
				a, err := e.versions.Latest(in.External)
				if err != nil {
					return nil, fmt.Errorf("input %d: unknown source %q", i, in.External)
				}
				src = a
			}
			ins[i] = src
		}
	}
	return ins, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Output returns the output array of a node in this run.
func (r *Run) Output(nodeID string) (*array.Array, error) {
	out, ok := r.outputs[nodeID]
	if !ok {
		return nil, fmt.Errorf("workflow: no output recorded for node %q", nodeID)
	}
	return out, nil
}

// Inputs returns the resolved input arrays of a node in this run.
func (r *Run) Inputs(nodeID string) ([]*array.Array, error) {
	ins, ok := r.inputs[nodeID]
	if !ok {
		return nil, fmt.Errorf("workflow: no inputs recorded for node %q", nodeID)
	}
	return ins, nil
}

// Stores returns the lineage stores materialized for a node (nil for
// Blackbox/Map-only nodes). The slice is a snapshot: a background rebuild
// may swap a degraded store for its replacement at any time, and callers
// holding an older snapshot simply keep using the store they resolved.
func (r *Run) Stores(nodeID string) []*lineage.Store {
	r.storesMu.RLock()
	defer r.storesMu.RUnlock()
	list := r.stores[nodeID]
	if len(list) == 0 {
		return nil
	}
	out := make([]*lineage.Store, len(list))
	copy(out, list)
	return out
}

// EachStore visits every lineage store attached to the run. The health
// and stats endpoints use it to surface degraded stores.
func (r *Run) EachStore(fn func(nodeID string, st *lineage.Store)) {
	r.storesMu.RLock()
	defer r.storesMu.RUnlock()
	for nodeID, list := range r.stores {
		for _, st := range list {
			fn(nodeID, st)
		}
	}
}

// swapStore replaces old with fresh in the node's store list, returning
// false when old is no longer attached (already swapped, or the run was
// released). Lookups holding the old pointer keep using it — the corrupt
// store stays open and they fall back to re-execution again — while every
// new lookup resolves the healed replacement.
func (r *Run) swapStore(nodeID string, old, fresh *lineage.Store) bool {
	r.storesMu.Lock()
	defer r.storesMu.Unlock()
	for i, st := range r.stores[nodeID] {
		if st == old {
			r.stores[nodeID][i] = fresh
			return true
		}
	}
	return false
}

// MapCtx returns the node's mapping-function context.
func (r *Run) MapCtx(nodeID string) (*MapCtx, error) {
	mc, ok := r.mapCtxs[nodeID]
	if !ok {
		return nil, fmt.Errorf("workflow: no context for node %q", nodeID)
	}
	return mc, nil
}

// Strategies returns the node's assigned strategies.
func (r *Run) Strategies(nodeID string) []lineage.Strategy { return r.Plan.Strategies(nodeID) }

// CaptureStats sums write-path statistics across every lineage store of
// the run — the capture-overhead quantities behind bench/'s ingest.* rows.
// Capture runs on the operator's thread, so OpWrite and Encode are both the
// stores' summed WriteTime; the benchmark reads the two under their own
// names.
type CaptureStats struct {
	OpWrite time.Duration // summed WriteTime: the bulk encodes of every batch
	Drain   time.Duration // summed FlushTime: each store's one Flush
	Encode  time.Duration // summed WriteTime, as OpWrite
	Pairs   int64
}

// CaptureStats aggregates the run's store statistics.
func (r *Run) CaptureStats() CaptureStats {
	var cs CaptureStats
	r.storesMu.RLock()
	defer r.storesMu.RUnlock()
	for _, stores := range r.stores {
		for _, st := range stores {
			ss := st.Stats()
			cs.OpWrite += ss.WriteTime
			cs.Drain += ss.FlushTime
			cs.Pairs += int64(ss.Pairs)
		}
	}
	cs.Encode = cs.OpWrite
	return cs
}

// LineageBytes sums the storage footprint of every lineage store in the
// run — the disk-overhead quantity of Figures 5(a), 6(a), 7(a).
func (r *Run) LineageBytes() int64 {
	var total int64
	r.storesMu.RLock()
	defer r.storesMu.RUnlock()
	for _, stores := range r.stores {
		for _, st := range stores {
			total += st.SizeBytes()
		}
	}
	return total
}

// reexecCtxCheckInterval bounds how many streamed region pairs are
// processed between context checks during a tracing re-execution.
const reexecCtxCheckInterval = 1024

// Reexecute re-runs a node in tracing mode (cur_modes = {Full}), streaming
// every region pair to sink instead of storing it — black-box lineage
// resolution (paper §V-B). A pair is valid only during the sink call (see
// lineage.NewWriter). The sink may return lineage.ErrAborted (wrapped)
// to stop early; Reexecute propagates it. The context is checked
// periodically as pairs stream; cancellation aborts the trace with a
// wrapped ctx.Err() naming the node.
func (r *Run) Reexecute(ctx context.Context, nodeID string, sink func(*lineage.RegionPair) error) (time.Duration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("workflow: reexecute %q: %w", nodeID, err)
	}
	node := r.Spec.Node(nodeID)
	if node == nil {
		return 0, fmt.Errorf("workflow: unknown node %q", nodeID)
	}
	if !Supports(node.Op, lineage.Full) {
		return 0, ErrNoTracing
	}
	ins, err := r.Inputs(nodeID)
	if err != nil {
		return 0, err
	}
	mc, err := r.MapCtx(nodeID)
	if err != nil {
		return 0, err
	}
	if ctx.Done() != nil {
		inner := sink
		n := 0
		sink = func(rp *lineage.RegionPair) error {
			if n++; n%reexecCtxCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("workflow: reexecute %q: %w", nodeID, err)
				}
			}
			return inner(rp)
		}
	}
	writer := lineage.NewWriter(mc.OutSpace, mc.InSpaces, nil, sink)
	rc := NewRunCtx(lineage.NewModeSet(lineage.Full), writer)
	start := time.Now()
	if _, err := node.Op.Run(rc, ins); err != nil {
		return time.Since(start), err
	}
	_, err = writer.Flush()
	return time.Since(start), err
}

// EmitMappedPairs is a helper for mapping operators running in tracing
// mode: it synthesizes one region pair per output cell from the operator's
// per-cell map_b (CellMap). Built-in operators call it from Run when
// cur_modes includes Full, which is exactly what black-box re-execution
// requests.
func EmitMappedPairs(rc *RunCtx, mc *MapCtx, op Operator) error {
	mapB := CellMap(op, true)
	if mapB == nil {
		return fmt.Errorf("workflow: %s has no backward mapping to trace", op.Name())
	}
	nIn := len(mc.InSpaces)
	ins := make([][]uint64, nIn)
	outBuf := make([]uint64, 1)
	for idx := uint64(0); idx < mc.OutSpace.Size(); idx++ {
		outBuf[0] = idx
		for i := 0; i < nIn; i++ {
			ins[i] = mapB(mc, idx, i, ins[i][:0])
		}
		if err := rc.LWrite(outBuf, ins...); err != nil {
			return err
		}
	}
	return nil
}

// RebuildStore re-materializes one degraded lineage store by re-running
// its node under the same strategy into a fresh kvstore namespace, then
// swapping the healed store into the run — the self-heal path behind
// "lineage is a recoverable cache". The rebuild runs the node through the
// same writer as a normal execution, so a healed store is byte-identical
// to one written by the original run. The corrupt store is left open and
// detached: lookups that resolved it before the swap keep falling back
// to re-execution, and its log is freed with the run.
func (e *Executor) RebuildStore(ctx context.Context, run *Run, nodeID string, st *lineage.Store) error {
	if ctx == nil {
		ctx = context.Background()
	}
	node := run.Spec.Node(nodeID)
	if node == nil {
		return fmt.Errorf("workflow: rebuild: unknown node %q", nodeID)
	}
	ins, err := run.Inputs(nodeID)
	if err != nil {
		return fmt.Errorf("workflow: rebuild %q: %w", nodeID, err)
	}
	mc, err := run.MapCtx(nodeID)
	if err != nil {
		return fmt.Errorf("workflow: rebuild %q: %w", nodeID, err)
	}
	strat := st.Strategy()
	ns := fmt.Sprintf("%s/%s/%s@heal%d", run.ID, nodeID, strat.ID(), e.healSeq.Add(1))
	// fail drops the namespace, whatever the rebuild wrote into it.
	fail := func(err error) error {
		_ = e.manager.Drop(ns)
		return fmt.Errorf("workflow: rebuild %q: %w", nodeID, err)
	}
	kv, err := e.manager.Open(ns)
	if err != nil {
		return fail(err)
	}
	b, err := lineage.NewBuilder(kv, strat, mc.OutSpace, mc.InSpaces)
	if err != nil {
		return fail(err)
	}
	writer := lineage.NewWriter(mc.OutSpace, mc.InSpaces, []*lineage.Builder{b}, nil)
	if _, err := node.Op.Run(NewRunCtx(lineage.NewModeSet(strat.Mode), writer), ins); err != nil {
		return fail(err)
	}
	stores, err := writer.Flush()
	if err != nil {
		return fail(err)
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	if !run.swapStore(nodeID, st, stores[0]) {
		return fail(fmt.Errorf("store no longer attached to run %s", run.ID))
	}
	return nil
}

// Manager returns the kvstore manager (for size accounting in tests and
// benchmarks).
func (e *Executor) Manager() *kvstore.Manager { return e.manager }
