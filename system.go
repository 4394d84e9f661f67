package subzero

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"subzero/internal/array"
	"subzero/internal/fault"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
	"subzero/internal/obs"
	"subzero/internal/ops"
	"subzero/internal/opt"
	"subzero/internal/query"
	"subzero/internal/trace"
	"subzero/internal/workflow"
)

// System wires together SubZero's components (paper Figure 3): the
// workflow executor, the versioned array store, per-operator lineage
// datastores, the statistics collector, the lineage query executor, and
// the strategy optimizer.
//
// A System is safe for concurrent use: workflows may execute while
// lineage queries run against earlier runs, and QueryBatch serves many
// queries over a bounded worker pool. Completed runs are tracked in a
// registry addressable by durable run ID (see Run, Runs, DropRun), so
// query and optimize calls accept either the live *Run pointer or its ID.
type System struct {
	versions *array.Versions
	manager  *kvstore.Manager
	stats    *lineage.Collector
	exec     *workflow.Executor
	qopts    query.Options
	par      int
	obs      *obs.Set

	healAttempts  atomic.Int64
	healSuccesses atomic.Int64
	healFailures  atomic.Int64

	mu       sync.RWMutex
	runs     map[string]*workflow.Run
	runOrder []string
}

// RunRef identifies an executed run in query and optimize calls: pass
// either the *Run returned by Execute or the run's ID string (resolved
// through the system's run registry).
type RunRef = any

// Option configures a System.
type Option func(*config)

type config struct {
	storageDir  string
	qopts       query.Options
	parallelism int
}

// WithStorageDir stores lineage in log-structured files under dir; the
// default keeps lineage stores in memory. The directory belongs to the
// System: NewSystem removes every *.log file in it, since no store outlives
// the process that wrote it.
func WithStorageDir(dir string) Option {
	return func(c *config) { c.storageDir = dir }
}

// WithQueryOptions sets the default query-executor options.
func WithQueryOptions(o QueryOptions) Option {
	return func(c *config) { c.qopts = o }
}

// WithParallelism bounds the QueryBatch worker pool at n concurrent
// queries. The default is runtime.GOMAXPROCS(0).
func WithParallelism(n int) Option {
	return func(c *config) { c.parallelism = n }
}

// WithIngest is ignored. Lineage capture has one path: each operator
// encodes its region pairs on its own thread as it writes them. The option
// remains only so that existing callers compile; it will be removed.
func WithIngest(shards, depth int) Option {
	return func(*config) {}
}

// NewSystem creates a SubZero instance.
func NewSystem(options ...Option) (*System, error) {
	cfg := config{qopts: query.DefaultOptions()}
	for _, o := range options {
		o(&cfg)
	}
	if cfg.parallelism <= 0 {
		cfg.parallelism = runtime.GOMAXPROCS(0)
	}
	// Observability is always on: the metric set is a few hundred atomics,
	// and every layer — kvstore I/O, query spans — reports into one
	// registry.
	obsSet := obs.NewSet()
	mgr, err := kvstore.NewManager(cfg.storageDir, &obsSet.KV)
	if err != nil {
		return nil, err
	}
	versions := array.NewVersions()
	stats := lineage.NewCollector()
	exec := workflow.NewExecutor(versions, mgr, stats)
	return &System{
		versions: versions,
		manager:  mgr,
		stats:    stats,
		exec:     exec,
		qopts:    cfg.qopts,
		par:      cfg.parallelism,
		obs:      obsSet,
		runs:     make(map[string]*workflow.Run),
	}, nil
}

// Execute runs a workflow under the given lineage strategy plan (nil
// means black-box everywhere). Source arrays are registered in the
// no-overwrite versioned store along with every intermediate result. The
// completed run is registered under its durable ID (run.ID) and stays
// addressable through Run until DropRun releases it.
//
// The context is checked at every operator boundary; cancellation aborts
// the workflow with a wrapped ctx.Err() naming the node where work
// stopped, and nothing is registered.
func (s *System) Execute(ctx context.Context, spec *Spec, plan Plan, sources map[string]*Array) (*Run, error) {
	run, err := s.exec.Execute(ctx, spec, plan, sources)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.runs[run.ID] = run
	s.runOrder = append(s.runOrder, run.ID)
	s.mu.Unlock()
	return run, nil
}

// Run returns a completed run by its durable ID.
func (s *System) Run(id string) (*Run, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	run, ok := s.runs[id]
	if !ok {
		return nil, fmt.Errorf("subzero: unknown run %q", id)
	}
	return run, nil
}

// Runs returns the IDs of all registered runs in completion order.
func (s *System) Runs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.runOrder))
	copy(out, s.runOrder)
	return out
}

// DropRun removes a run from the registry and releases its resources:
// every lineage store the run materialized (closing and deleting backing
// files for disk-backed systems) and every intermediate and final array
// version the run produced. Source arrays registered under their own
// names are shared across runs and are not touched.
//
// Dropping a run invalidates it: queries still in flight against it fail
// with a store error rather than returning partial results, and new
// queries by its ID fail with an unknown-run error. Callers serving
// concurrent traffic should stop routing queries to a run before
// dropping it.
func (s *System) DropRun(id string) error {
	s.mu.Lock()
	run, ok := s.runs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("subzero: unknown run %q", id)
	}
	delete(s.runs, id)
	for i, rid := range s.runOrder {
		if rid == id {
			s.runOrder = append(s.runOrder[:i], s.runOrder[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	if err := s.exec.ReleaseRun(run.ID); err != nil {
		return fmt.Errorf("subzero: drop run %q lineage: %w", id, err)
	}
	return nil
}

// resolveRun maps a RunRef to the underlying run.
func (s *System) resolveRun(ref RunRef) (*workflow.Run, error) {
	switch r := ref.(type) {
	case *workflow.Run:
		if r != nil {
			return r, nil
		}
	case string:
		return s.Run(r)
	}
	return nil, fmt.Errorf("subzero: run reference must be a *Run or a run ID string, got %T", ref)
}

// ValidateQuery checks a query against a run without executing it: the
// path must follow actual workflow edges and the cells must fit the
// starting array. Serving layers use it to distinguish malformed requests
// from execution failures.
func (s *System) ValidateQuery(run RunRef, q Query) error {
	r, err := s.resolveRun(run)
	if err != nil {
		return err
	}
	return query.New(r, nil, s.qopts).Validate(q)
}

// Query executes a lineage query against a run (a *Run or run ID) using
// the system's default query options.
func (s *System) Query(ctx context.Context, run RunRef, q Query) (*QueryResult, error) {
	return s.QueryWith(ctx, run, q, s.qopts)
}

// QueryWith executes a lineage query with explicit options. The context
// is checked at every path-step boundary and during black-box
// re-execution; cancellation aborts the trace with a wrapped ctx.Err().
func (s *System) QueryWith(ctx context.Context, run RunRef, q Query, opts QueryOptions) (*QueryResult, error) {
	r, err := s.resolveRun(run)
	if err != nil {
		return nil, err
	}
	return query.New(r, s.stats, opts).WithObs(&s.obs.Query).WithHealer(s.healerFor(r)).Execute(ctx, q)
}

// healerFor returns the corruption-recovery hook for queries against r.
// Store.BeginHeal's CAS deduplicates concurrent notifications, so a
// store corrupt under heavy query traffic is rebuilt exactly once. The
// rebuild runs detached: the query that tripped over the corruption has
// already fallen back to re-execution and should not be taxed with the
// repair.
func (s *System) healerFor(r *workflow.Run) query.Healer {
	return func(nodeID string, st *lineage.Store) {
		if !st.BeginHeal() {
			return
		}
		s.healAttempts.Add(1)
		go func() {
			defer st.EndHeal()
			//lint:ignore subzero/ctxflow the rebuild outlives the query that noticed the corruption
			if err := s.exec.RebuildStore(context.Background(), r, nodeID, st); err != nil {
				// The run keeps the degraded store: queries continue to
				// fall back, and the next corrupt lookup retries the heal.
				s.healFailures.Add(1)
				return
			}
			s.healSuccesses.Add(1)
		}()
	}
}

// HealCounts reports background rebuild outcomes since startup: rebuilds
// started, completed (store swapped and re-armed), and failed (store
// still degraded, queries still falling back).
func (s *System) HealCounts() (attempts, successes, failures int64) {
	return s.healAttempts.Load(), s.healSuccesses.Load(), s.healFailures.Load()
}

// DegradedStore describes one quarantined lineage store: a lookup hit
// corrupt data, queries against it answer via re-execution, and — if
// Healing — a background rebuild is in flight.
type DegradedStore struct {
	Run      string
	Node     string
	Strategy string
	Healing  bool
}

// DegradedStores inventories every degraded lineage store across all
// registered runs, in run-completion order. The serving layer surfaces
// this in /v1/healthz and /v1/stats.
func (s *System) DegradedStores() []DegradedStore {
	s.mu.RLock()
	order := make([]string, len(s.runOrder))
	copy(order, s.runOrder)
	runs := make(map[string]*workflow.Run, len(s.runs))
	for id, r := range s.runs {
		runs[id] = r
	}
	s.mu.RUnlock()
	var out []DegradedStore
	for _, id := range order {
		runs[id].EachStore(func(nodeID string, st *lineage.Store) {
			if st.Degraded() {
				out = append(out, DegradedStore{
					Run:      id,
					Node:     nodeID,
					Strategy: st.Strategy().ID(),
					Healing:  st.Healing(),
				})
			}
		})
	}
	return out
}

// StoreStat is one lineage store's footprint in the system inventory:
// its stored (compressed) size next to the logical cell volume the
// records represent, plus the record codec that produced it.
type StoreStat struct {
	Run          string
	Node         string
	Strategy     string
	Codec        int
	Pairs        int
	StoredBytes  int64
	LogicalBytes int64
}

// StoreInventory lists every lineage store across all registered runs,
// in run-completion order, with its compressed and logical footprint.
// The serving layer surfaces this in /v1/stats so compression ratios
// can be watched per store.
func (s *System) StoreInventory() []StoreStat {
	s.mu.RLock()
	order := make([]string, len(s.runOrder))
	copy(order, s.runOrder)
	runs := make(map[string]*workflow.Run, len(s.runs))
	for id, r := range s.runs {
		runs[id] = r
	}
	s.mu.RUnlock()
	var out []StoreStat
	for _, id := range order {
		runs[id].EachStore(func(nodeID string, st *lineage.Store) {
			out = append(out, StoreStat{
				Run:          id,
				Node:         nodeID,
				Strategy:     st.Strategy().ID(),
				Codec:        3, // the one record format: tiled containers
				Pairs:        st.NumPairs(),
				StoredBytes:  st.SizeBytes(),
				LogicalBytes: st.LogicalBytes(),
			})
		})
	}
	return out
}

// BatchReport aggregates one QueryBatch call.
type BatchReport struct {
	Queries   int           // queries submitted
	Succeeded int           // queries that returned a result
	Failed    int           // queries that returned an error
	Cells     uint64        // total result cells across successful queries
	QueryTime time.Duration // summed per-query execution time
	Elapsed   time.Duration // wall-clock time for the whole batch
}

// BatchResult holds per-query outcomes plus the aggregate report.
// Results and Errs are index-aligned with the submitted queries: exactly
// one of Results[i], Errs[i] is non-nil.
type BatchResult struct {
	Results []*QueryResult
	Errs    []error
	Report  BatchReport
}

// QueryBatch executes independent lineage queries concurrently over a
// bounded worker pool (see WithParallelism) — the serving primitive for
// multi-user query traffic. Queries are independent: one query failing
// does not stop the others, and per-query errors are reported in the
// returned BatchResult rather than as the call's error (which is reserved
// for an unresolvable run reference).
//
// Cancelling the context stops dispatch; queries not yet started fail
// with a wrapped ctx.Err(), and in-flight queries abort at their next
// step boundary.
func (s *System) QueryBatch(ctx context.Context, run RunRef, queries []Query, opts QueryOptions) (*BatchResult, error) {
	r, err := s.resolveRun(run)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(queries)
	br := &BatchResult{
		Results: make([]*QueryResult, n),
		Errs:    make([]error, n),
	}
	// Batch span: each worker's query spans parent under it through the
	// context. Child-span creation is safe across worker goroutines.
	bsp := trace.FromContext(ctx).Child("query-batch", obs.SpanQuery)
	bsp.SetAttrInt("queries", int64(n))
	defer bsp.End()
	ctx = trace.ContextWithSpan(ctx, bsp)
	start := time.Now()
	workers := s.par
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				br.Results[i], br.Errs[i] = s.runBatchQuery(ctx, r, queries[i], opts)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			for j := i; j < n; j++ {
				br.Errs[j] = fmt.Errorf("subzero: query %d not started: %w", j, ctx.Err())
			}
			break dispatch
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
	br.Report = BatchReport{Queries: n, Elapsed: time.Since(start)}
	for i := range br.Results {
		if br.Errs[i] != nil {
			br.Report.Failed++
			continue
		}
		br.Report.Succeeded++
		br.Report.Cells += br.Results[i].Bitmap.Count()
		br.Report.QueryTime += br.Results[i].Elapsed
	}
	return br, nil
}

// runBatchQuery executes one batch query with panic containment: a
// poisoned query (operator bug, corrupt store tripping an invariant)
// fails only its own Errs slot with a structured *fault.PanicError. The
// worker must survive — a dead worker would strand the dispatch loop on
// an unread channel and deadlock the whole batch.
func (s *System) runBatchQuery(ctx context.Context, r *workflow.Run, q Query, opts QueryOptions) (res *QueryResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, fault.AsError("query batch worker", rec)
		}
	}()
	return query.New(r, s.stats, opts).WithObs(&s.obs.Query).WithHealer(s.healerFor(r)).Execute(ctx, q)
}

// Optimize runs the lineage strategy optimizer against a profiling run
// (a *Run or run ID): it returns the plan minimizing the sample
// workload's expected query cost within the constraints. Re-run the
// workflow under report.Plan to apply it.
func (s *System) Optimize(ctx context.Context, run RunRef, workload []Query, cons Constraints) (*OptimizeReport, error) {
	r, err := s.resolveRun(run)
	if err != nil {
		return nil, err
	}
	return opt.New(r, s.stats).Choose(ctx, workload, cons)
}

// OptimizeForced is Optimize with user-pinned strategies per node (paper
// §VII: "users can manually specify operator specific strategies").
func (s *System) OptimizeForced(ctx context.Context, run RunRef, workload []Query, cons Constraints, forced map[string][]Strategy) (*OptimizeReport, error) {
	r, err := s.resolveRun(run)
	if err != nil {
		return nil, err
	}
	o := opt.New(r, s.stats)
	for node, strategies := range forced {
		o.Force(node, strategies...)
	}
	return o.Choose(ctx, workload, cons)
}

// Stats returns the statistics collector's per-operator data.
func (s *System) Stats(nodeID string) OpStats { return s.stats.Get(nodeID) }

// AllStats returns statistics for every operator seen.
func (s *System) AllStats() []OpStats { return s.stats.All() }

// LineageBytes returns the total storage held by the lineage stores of
// the registered runs: the sum of their Run.LineageBytes.
func (s *System) LineageBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, r := range s.runs {
		total += r.LineageBytes()
	}
	return total
}

// ArrayBytes returns the footprint of the versioned array store.
func (s *System) ArrayBytes() int64 { return s.versions.TotalBytes() }

// Observability returns the system's metric set: every query and kvstore
// family this instance reports. The serving layer registers its
// HTTP families in the same set and renders the whole registry at
// /v1/metrics.
func (s *System) Observability() *obs.Set { return s.obs }

// Close releases all lineage stores and clears the run registry.
func (s *System) Close() error {
	s.mu.Lock()
	s.runs = make(map[string]*workflow.Run)
	s.runOrder = nil
	s.mu.Unlock()
	return s.manager.Close()
}

// ---------------------------------------------------------------------
// Built-in operator constructors (the lineage-aware SciDB-style operator
// library; all are mapping operators supporting Map and Full lineage).
// ---------------------------------------------------------------------

// UnaryOp applies fn cell-wise; output (c) depends on input (c).
func UnaryOp(name string, fn func(float64) float64) Operator { return ops.NewUnary(name, fn) }

// BinaryOp combines two same-shaped arrays cell-wise.
func BinaryOp(name string, fn func(a, b float64) float64) Operator { return ops.NewBinary(name, fn) }

// BroadcastOp combines input 0 cell-wise with the single cell of input 1.
func BroadcastOp(name string, fn func(x, scalar float64) float64) Operator {
	return ops.NewBroadcast(name, fn)
}

// TransposeOp swaps the dimensions of a matrix.
func TransposeOp() Operator { return ops.NewTranspose() }

// MatMulOp multiplies two matrices.
func MatMulOp() Operator { return ops.NewMatMul() }

// ConvolveOp convolves a matrix with a square odd-extent kernel.
func ConvolveOp(name string, kernel [][]float64) (Operator, error) {
	return ops.NewConvolve2D(name, kernel)
}

// MeanAllOp reduces the whole array to its mean (an all-to-all operator
// eligible for the entire-array optimization).
func MeanAllOp() Operator { return ops.NewMeanAll() }

// StdAllOp reduces the whole array to its standard deviation.
func StdAllOp() Operator { return ops.NewStdAll() }

// MaxAllOp reduces the whole array to its maximum.
func MaxAllOp() Operator { return ops.NewMaxAll() }

// ColMeanOp reduces each column of a matrix to its mean.
func ColMeanOp() Operator { return ops.NewColMean() }

// ColReduceOp reduces each column with a custom function.
func ColReduceOp(name string, fn func(col []float64) float64) Operator {
	return ops.NewColReduce(name, fn)
}

// ColCenterOp combines each cell of input 0 with its column's statistic
// from input 1 (shaped 1×n).
func ColCenterOp(name string, fn func(x, stat float64) float64) Operator {
	return ops.NewColCenter(name, fn)
}

// SliceOp extracts a rectangular window.
func SliceOp(name string, window Rect) (Operator, error) { return ops.NewSliceRect(name, window) }

// SubsampleOp keeps every stride-th cell along each dimension.
func SubsampleOp(stride int) (Operator, error) { return ops.NewSubsample(stride) }

// ConcatOp concatenates two arrays along an axis.
func ConcatOp(axis int) Operator { return ops.NewConcat(axis) }

// StandardKernels returns commonly used convolution kernels by name
// ("gaussian3", "box3", "identity3").
func StandardKernels(name string) ([][]float64, error) {
	switch name {
	case "gaussian3":
		return [][]float64{
			{1.0 / 16, 2.0 / 16, 1.0 / 16},
			{2.0 / 16, 4.0 / 16, 2.0 / 16},
			{1.0 / 16, 2.0 / 16, 1.0 / 16},
		}, nil
	case "box3":
		k := make([][]float64, 3)
		for i := range k {
			k[i] = []float64{1.0 / 9, 1.0 / 9, 1.0 / 9}
		}
		return k, nil
	case "identity3":
		return [][]float64{{0, 0, 0}, {0, 1, 0}, {0, 0, 0}}, nil
	}
	return nil, fmt.Errorf("subzero: unknown kernel %q", name)
}

// MB is a convenience for storage constraints.
func MB(n float64) int64 { return int64(math.Round(n * 1024 * 1024)) }
