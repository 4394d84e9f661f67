package subzero_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"subzero"
)

// registryPipeline builds the small two-operator pipeline used by the
// registry and batching tests.
func registryPipeline(t *testing.T) (*subzero.System, *subzero.Spec, subzero.Plan, map[string]*subzero.Array) {
	t.Helper()
	sys, err := subzero.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	spec := subzero.NewSpec("registry")
	spec.Add("double", subzero.UnaryOp("double", func(x float64) float64 { return 2 * x }),
		subzero.FromExternal("src"))
	kernel, err := subzero.StandardKernels("box3")
	if err != nil {
		t.Fatal(err)
	}
	smooth, err := subzero.ConvolveOp("smooth", kernel)
	if err != nil {
		t.Fatal(err)
	}
	spec.Add("smooth", smooth, subzero.FromNode("double"))
	src, err := subzero.NewArray("src", subzero.Shape{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range src.Data() {
		src.Data()[i] = float64(i)
	}
	plan := subzero.Plan{
		"double": {subzero.StratMap},
		"smooth": {subzero.StratMap},
	}
	return sys, spec, plan, map[string]*subzero.Array{"src": src}
}

func TestRunRegistryLifecycle(t *testing.T) {
	ctx := context.Background()
	sys, spec, plan, sources := registryPipeline(t)

	run1, err := sys.Execute(ctx, spec, plan, sources)
	if err != nil {
		t.Fatal(err)
	}
	run2, err := sys.Execute(ctx, spec, plan, sources)
	if err != nil {
		t.Fatal(err)
	}
	if run1.ID == run2.ID {
		t.Fatalf("duplicate run IDs: %q", run1.ID)
	}

	// Retrieval by ID returns the same run.
	got, err := sys.Run(run1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != run1 {
		t.Fatal("Run(id) returned a different run")
	}
	ids := sys.Runs()
	if len(ids) != 2 || ids[0] != run1.ID || ids[1] != run2.ID {
		t.Fatalf("Runs()=%v, want [%s %s]", ids, run1.ID, run2.ID)
	}

	// Queries resolve run IDs through the registry.
	q := subzero.BackwardQuery([]uint64{20}, subzero.Step{Node: "smooth"}, subzero.Step{Node: "double"})
	byID, err := sys.Query(ctx, run1.ID, q)
	if err != nil {
		t.Fatal(err)
	}
	byPtr, err := sys.Query(ctx, run1, q)
	if err != nil {
		t.Fatal(err)
	}
	if byID.Bitmap.Count() != byPtr.Bitmap.Count() {
		t.Fatal("run-ID query answered differently from *Run query")
	}

	// DropRun releases the run's array versions and removes it.
	before := sys.ArrayBytes()
	if err := sys.DropRun(run1.ID); err != nil {
		t.Fatal(err)
	}
	if after := sys.ArrayBytes(); after >= before {
		t.Fatalf("DropRun released no array storage: %d -> %d", before, after)
	}
	if _, err := sys.Run(run1.ID); err == nil {
		t.Fatal("dropped run still retrievable")
	}
	if _, err := sys.Query(ctx, run1.ID, q); err == nil {
		t.Fatal("query by dropped run ID succeeded")
	}
	if err := sys.DropRun(run1.ID); err == nil {
		t.Fatal("double drop succeeded")
	}
	// The other run is untouched.
	if _, err := sys.Query(ctx, run2.ID, q); err != nil {
		t.Fatalf("surviving run broken after drop: %v", err)
	}
	if ids := sys.Runs(); len(ids) != 1 || ids[0] != run2.ID {
		t.Fatalf("Runs() after drop=%v", ids)
	}
}

func TestDropRunReleasesLineageStores(t *testing.T) {
	ctx := context.Background()
	sys, err := subzero.NewSystem(subzero.WithStorageDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	spec := subzero.NewSpec("drop")
	spec.Add("id", subzero.UnaryOp("id", func(x float64) float64 { return x }),
		subzero.FromExternal("src"))
	src, err := subzero.NewArray("src", subzero.Shape{16})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.Execute(ctx, spec, subzero.Plan{"id": {subzero.StratFullOne}},
		map[string]*subzero.Array{"src": src})
	if err != nil {
		t.Fatal(err)
	}
	if sys.LineageBytes() <= 0 {
		t.Fatal("no lineage materialized")
	}
	if err := sys.DropRun(run.ID); err != nil {
		t.Fatal(err)
	}
	if got := sys.LineageBytes(); got != 0 {
		t.Fatalf("lineage bytes after drop = %d, want 0", got)
	}
}

// TestServeLoopDoesNotAccumulateSourceVersions pins the execute-and-drop
// serving lifecycle: re-executing over the same sources must not grow the
// versioned store, and DropRun must return the system to source-only
// footprint.
func TestServeLoopDoesNotAccumulateSourceVersions(t *testing.T) {
	ctx := context.Background()
	sys, spec, plan, sources := registryPipeline(t)
	srcBytes := sources["src"].MemoryBytes()
	for i := 0; i < 5; i++ {
		run, err := sys.Execute(ctx, spec, plan, sources)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.DropRun(run.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.ArrayBytes(); got != srcBytes {
		t.Fatalf("array bytes after serve loop = %d, want %d (source only)", got, srcBytes)
	}
}

func TestRunRefRejectsBadReference(t *testing.T) {
	ctx := context.Background()
	sys, _, _, _ := registryPipeline(t)
	q := subzero.BackwardQuery([]uint64{0}, subzero.Step{Node: "double"})
	if _, err := sys.Query(ctx, 42, q); err == nil {
		t.Fatal("integer run reference accepted")
	}
	if _, err := sys.Query(ctx, nil, q); err == nil {
		t.Fatal("nil run reference accepted")
	}
	var nilRun *subzero.Run
	if _, err := sys.Query(ctx, nilRun, q); err == nil {
		t.Fatal("nil *Run accepted")
	}
	if _, err := sys.Query(ctx, "no-such-run", q); err == nil {
		t.Fatal("unknown run ID accepted")
	}
}

// cancelOp cancels the shared context while executing, simulating a
// caller-side abort that lands mid-workflow.
type cancelOp struct {
	subzero.Meta
	cancel context.CancelFunc
}

func (o *cancelOp) OutShape(in []subzero.Shape) (subzero.Shape, error) {
	return in[0].Clone(), nil
}

func (o *cancelOp) Run(_ *subzero.RunCtx, ins []*subzero.Array) (*subzero.Array, error) {
	o.cancel()
	return ins[0].Clone().WithName(o.OpName), nil
}

func TestExecuteCancelledMidWorkflow(t *testing.T) {
	sys, err := subzero.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	spec := subzero.NewSpec("cancel")
	spec.Add("store", subzero.UnaryOp("store", func(x float64) float64 { return x }),
		subzero.FromExternal("src"))
	spec.Add("first", &cancelOp{
		Meta:   subzero.Meta{OpName: "first", NIn: 1},
		cancel: cancel,
	}, subzero.FromNode("store"))
	spec.Add("second", subzero.UnaryOp("second", func(x float64) float64 { return x }),
		subzero.FromNode("first"))
	src, err := subzero.NewArray("src", subzero.Shape{4})
	if err != nil {
		t.Fatal(err)
	}
	// "store" materializes lineage before the cancel lands, so the abort
	// path has real resources to release.
	_, err = sys.Execute(ctx, spec, subzero.Plan{"store": {subzero.StratFullOne}},
		map[string]*subzero.Array{"src": src})
	if err == nil {
		t.Fatal("cancelled workflow completed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if !strings.Contains(err.Error(), "second") {
		t.Fatalf("error does not name the aborted node: %v", err)
	}
	// Nothing half-finished lands in the registry, and the partial run's
	// lineage stores and intermediate arrays are released.
	if ids := sys.Runs(); len(ids) != 0 {
		t.Fatalf("aborted run registered: %v", ids)
	}
	if got := sys.LineageBytes(); got != 0 {
		t.Fatalf("aborted run leaked %d lineage bytes", got)
	}
	srcBytes := src.MemoryBytes()
	if got := sys.ArrayBytes(); got != srcBytes {
		t.Fatalf("aborted run leaked array versions: %d bytes, want %d (source only)", got, srcBytes)
	}
}

func TestExecuteDeadlineExceeded(t *testing.T) {
	sys, spec, plan, sources := registryPipeline(t)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	_, err := sys.Execute(ctx, spec, plan, sources)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap DeadlineExceeded: %v", err)
	}
}

func TestQueryCancelled(t *testing.T) {
	sys, spec, plan, sources := registryPipeline(t)
	run, err := sys.Execute(context.Background(), spec, plan, sources)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := subzero.BackwardQuery([]uint64{20}, subzero.Step{Node: "smooth"}, subzero.Step{Node: "double"})
	_, err = sys.Query(ctx, run, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("query error does not wrap context.Canceled: %v", err)
	}
	if !strings.Contains(err.Error(), "smooth") {
		t.Fatalf("query error does not name the step: %v", err)
	}
}

// batchQueries builds n independent backward queries over distinct cells.
func batchQueries(n int) []subzero.Query {
	qs := make([]subzero.Query, n)
	for i := range qs {
		qs[i] = subzero.BackwardQuery([]uint64{uint64(i)},
			subzero.Step{Node: "smooth"}, subzero.Step{Node: "double"})
	}
	return qs
}

func TestQueryBatchMatchesSequential(t *testing.T) {
	ctx := context.Background()
	sys, spec, plan, sources := registryPipeline(t)
	run, err := sys.Execute(ctx, spec, plan, sources)
	if err != nil {
		t.Fatal(err)
	}
	qs := batchQueries(16)
	br, err := sys.QueryBatch(ctx, run.ID, qs, subzero.DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if br.Report.Queries != 16 || br.Report.Succeeded != 16 || br.Report.Failed != 0 {
		t.Fatalf("report=%+v", br.Report)
	}
	if br.Report.Cells == 0 || br.Report.Elapsed <= 0 {
		t.Fatalf("report aggregates missing: %+v", br.Report)
	}
	for i, q := range qs {
		if br.Errs[i] != nil {
			t.Fatalf("query %d: %v", i, br.Errs[i])
		}
		want, err := sys.Query(ctx, run, q)
		if err != nil {
			t.Fatal(err)
		}
		got, wantCells := br.Results[i].Cells(), want.Cells()
		if len(got) != len(wantCells) {
			t.Fatalf("query %d: batch %d cells, sequential %d", i, len(got), len(wantCells))
		}
		for j := range got {
			if got[j] != wantCells[j] {
				t.Fatalf("query %d: cell mismatch at %d", i, j)
			}
		}
	}
}

func TestQueryBatchReportsPerQueryErrors(t *testing.T) {
	ctx := context.Background()
	sys, spec, plan, sources := registryPipeline(t)
	run, err := sys.Execute(ctx, spec, plan, sources)
	if err != nil {
		t.Fatal(err)
	}
	qs := batchQueries(4)
	qs[2] = subzero.BackwardQuery([]uint64{0}, subzero.Step{Node: "ghost"})
	br, err := sys.QueryBatch(ctx, run, qs, subzero.DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if br.Report.Succeeded != 3 || br.Report.Failed != 1 {
		t.Fatalf("report=%+v", br.Report)
	}
	if br.Errs[2] == nil || br.Results[2] != nil {
		t.Fatal("bad query not reported in its slot")
	}
	for _, i := range []int{0, 1, 3} {
		if br.Errs[i] != nil {
			t.Fatalf("healthy query %d failed: %v", i, br.Errs[i])
		}
	}
}

func TestQueryBatchCancelled(t *testing.T) {
	sys, spec, plan, sources := registryPipeline(t)
	run, err := sys.Execute(context.Background(), spec, plan, sources)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	br, err := sys.QueryBatch(ctx, run, batchQueries(8), subzero.DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if br.Report.Failed != 8 {
		t.Fatalf("cancelled batch: %+v", br.Report)
	}
	for i, qerr := range br.Errs {
		if !errors.Is(qerr, context.Canceled) {
			t.Fatalf("query %d error does not wrap context.Canceled: %v", i, qerr)
		}
	}
}

// TestConcurrentExecuteAndQueryBatch is the -race stress test: many
// goroutines execute workflows and run query batches against one System
// at once.
func TestConcurrentExecuteAndQueryBatch(t *testing.T) {
	ctx := context.Background()
	sys, spec, plan, sources := registryPipeline(t)
	seed, err := sys.Execute(ctx, spec, plan, sources)
	if err != nil {
		t.Fatal(err)
	}

	const executors, queriers = 4, 4
	var wg sync.WaitGroup
	errs := make(chan error, executors+queriers)

	for g := 0; g < executors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				run, err := sys.Execute(ctx, spec, plan, sources)
				if err != nil {
					errs <- err
					return
				}
				if _, err := sys.Query(ctx, run.ID, subzero.BackwardQuery([]uint64{1},
					subzero.Step{Node: "smooth"}, subzero.Step{Node: "double"})); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				br, err := sys.QueryBatch(ctx, seed.ID, batchQueries(8), subzero.DefaultQueryOptions())
				if err != nil {
					errs <- err
					return
				}
				if br.Report.Failed != 0 {
					errs <- fmt.Errorf("batch failures: %+v", br.Report)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every completed run is addressable.
	for _, id := range sys.Runs() {
		if _, err := sys.Run(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sys.Runs()); got != 1+executors*3 {
		t.Fatalf("registry holds %d runs, want %d", got, 1+executors*3)
	}
}

// TestConcurrentQueryBatchOverStores exercises concurrent store lookups
// (FullOne + payload strategies materialize real stores) under -race.
func TestConcurrentQueryBatchOverStores(t *testing.T) {
	ctx := context.Background()
	sys, err := subzero.NewSystem(subzero.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	spec := subzero.NewSpec("stores")
	spec.Add("double", subzero.UnaryOp("double", func(x float64) float64 { return 2 * x }),
		subzero.FromExternal("src"))
	src, err := subzero.NewArray("src", subzero.Shape{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.Execute(ctx, spec, subzero.Plan{
		"double": {subzero.StratFullOne, subzero.StratFullMany},
	}, map[string]*subzero.Array{"src": src})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]subzero.Query, 32)
	for i := range qs {
		qs[i] = subzero.BackwardQuery([]uint64{uint64(i * 7)}, subzero.Step{Node: "double"})
	}
	br, err := sys.QueryBatch(ctx, run, qs, subzero.QueryOptions{EntireArray: true})
	if err != nil {
		t.Fatal(err)
	}
	if br.Report.Succeeded != len(qs) {
		t.Fatalf("report=%+v errs=%v", br.Report, br.Errs)
	}
}

// TestConcurrentQueryBatchOverMappingFunctions pins the MapCtx scratch
// race: mapping functions (ConvolveOp's map_b) unravel coordinates into
// per-node scratch, which concurrent batch workers must not share. Run
// with -race and real parallelism.
func TestConcurrentQueryBatchOverMappingFunctions(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	ctx := context.Background()
	_, spec, plan, sources := registryPipeline(t) // smooth = StratMap convolve
	// A system with a real worker pool regardless of the host's default.
	sys8, err := subzero.NewSystem(subzero.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	defer sys8.Close()
	run8, err := sys8.Execute(ctx, spec, plan, sources)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]subzero.Query, 64)
	for i := range qs {
		qs[i] = subzero.BackwardQuery([]uint64{uint64(i)},
			subzero.Step{Node: "smooth"}, subzero.Step{Node: "double"})
	}
	br, err := sys8.QueryBatch(ctx, run8, qs, subzero.DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if br.Report.Succeeded != len(qs) {
		t.Fatalf("report=%+v", br.Report)
	}
	// Spot-check correctness against sequential execution: corrupted
	// scratch coordinates would change neighborhood results.
	for _, i := range []int{0, 17, 40, 63} {
		want, err := sys8.Query(ctx, run8, qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if br.Results[i].Bitmap.Count() != want.Bitmap.Count() {
			t.Fatalf("query %d: batch %d cells, sequential %d",
				i, br.Results[i].Bitmap.Count(), want.Bitmap.Count())
		}
	}
}
