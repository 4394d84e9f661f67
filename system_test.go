package subzero_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"subzero"
)

// buildSystem makes a small two-operator pipeline through the public API.
func buildSystem(t *testing.T, opts ...subzero.Option) (*subzero.System, *subzero.Spec, *subzero.Array) {
	t.Helper()
	sys, err := subzero.NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	spec := subzero.NewSpec("api-test")
	spec.Add("double", subzero.UnaryOp("double", func(x float64) float64 { return 2 * x }),
		subzero.FromExternal("src"))
	spec.Add("sum", subzero.MeanAllOp(), subzero.FromNode("double"))
	src, err := subzero.NewArray("src", subzero.Shape{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range src.Data() {
		src.Data()[i] = float64(i)
	}
	return sys, spec, src
}

func TestSystemExecuteAndQuery(t *testing.T) {
	sys, spec, src := buildSystem(t)
	run, err := sys.Execute(context.Background(), spec, subzero.Plan{
		"double": {subzero.StratMap},
		"sum":    {subzero.StratMap},
	}, map[string]*subzero.Array{"src": src})
	if err != nil {
		t.Fatal(err)
	}
	out, err := run.Output("sum")
	if err != nil {
		t.Fatal(err)
	}
	if out.Get(0) != 15 { // mean of 2*(0..15) = 15
		t.Fatalf("mean=%f", out.Get(0))
	}
	res, err := sys.Query(context.Background(), run, subzero.BackwardQuery([]uint64{0},
		subzero.Step{Node: "sum"}, subzero.Step{Node: "double"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells()) != 16 {
		t.Fatalf("backward through mean should reach all 16 cells, got %d", len(res.Cells()))
	}
	// Stats are observable through the facade.
	if sys.Stats("double").Runs != 1 {
		t.Fatal("stats not recorded")
	}
	if len(sys.AllStats()) != 2 {
		t.Fatalf("AllStats=%d", len(sys.AllStats()))
	}
	if sys.ArrayBytes() <= 0 {
		t.Fatal("versioned arrays not accounted")
	}
}

func TestSystemWithStorageDir(t *testing.T) {
	dir := t.TempDir()
	sys, err := subzero.NewSystem(subzero.WithStorageDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	spec := subzero.NewSpec("disk")
	spec.Add("id", subzero.UnaryOp("id", func(x float64) float64 { return x }),
		subzero.FromExternal("src"))
	src, _ := subzero.NewArray("src", subzero.Shape{8})
	if _, err := sys.Execute(context.Background(), spec, subzero.Plan{"id": {subzero.StratFullOne}},
		map[string]*subzero.Array{"src": src}); err != nil {
		t.Fatal(err)
	}
	if sys.LineageBytes() <= 0 {
		t.Fatal("no lineage bytes on disk")
	}
}

// A system restarted on a storage directory numbers its runs from 1 again,
// so it writes each store under a name whose log the previous process left
// behind. That log must not leak into the new store: after the restart the
// store inventory and the query answers equal a fresh system's.
func TestSystemRestartOnStorageDir(t *testing.T) {
	spec := subzero.NewSpec("disk")
	spec.Add("id", subzero.UnaryOp("id", func(x float64) float64 { return x }),
		subzero.FromExternal("src"))
	src, _ := subzero.NewArray("src", subzero.Shape{8})
	plan := subzero.Plan{"id": {subzero.StratFullOne, subzero.StratFullMany}}
	execute := func(dir string) ([]subzero.StoreStat, []uint64) {
		t.Helper()
		sys, err := subzero.NewSystem(subzero.WithStorageDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		ctx := context.Background()
		run, err := sys.Execute(ctx, spec, plan, map[string]*subzero.Array{"src": src})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Query(ctx, run, subzero.BackwardQuery([]uint64{2, 5}, subzero.Step{Node: "id"}))
		if err != nil {
			t.Fatal(err)
		}
		return sys.StoreInventory(), res.Cells()
	}
	wantInv, wantCells := execute(t.TempDir())
	dir := t.TempDir()
	execute(dir)
	gotInv, gotCells := execute(dir)
	if !slices.Equal(gotInv, wantInv) {
		t.Fatalf("store inventory after restart = %+v, want %+v", gotInv, wantInv)
	}
	if !slices.Equal(gotCells, wantCells) {
		t.Fatalf("backward answer after restart = %v, want %v", gotCells, wantCells)
	}
}

func TestSystemQueryOptions(t *testing.T) {
	sys, spec, src := buildSystem(t, subzero.WithQueryOptions(subzero.QueryOptions{}))
	run, err := sys.Execute(context.Background(), spec, subzero.Plan{
		"double": {subzero.StratMap}, "sum": {subzero.StratMap},
	}, map[string]*subzero.Array{"src": src})
	if err != nil {
		t.Fatal(err)
	}
	q := subzero.BackwardQuery([]uint64{0}, subzero.Step{Node: "sum"})
	slow, err := sys.Query(context.Background(), run, q) // options disable entire-array
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sys.QueryWith(context.Background(), run, q, subzero.DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if slow.Bitmap.Count() != fast.Bitmap.Count() {
		t.Fatal("query options changed the answer")
	}
	if fast.Steps[0].AccessPath != "entire-array" {
		t.Fatalf("fast path=%q", fast.Steps[0].AccessPath)
	}
	if slow.Steps[0].AccessPath == "entire-array" {
		t.Fatal("disabled optimization used")
	}
}

func TestSystemOptimize(t *testing.T) {
	sys, spec, src := buildSystem(t)
	run, err := sys.Execute(context.Background(), spec, subzero.Plan{
		"double": {subzero.StratMap}, "sum": {subzero.StratMap},
	}, map[string]*subzero.Array{"src": src})
	if err != nil {
		t.Fatal(err)
	}
	workload := []subzero.Query{
		subzero.BackwardQuery([]uint64{3}, subzero.Step{Node: "double"}),
	}
	rep, err := sys.Optimize(context.Background(), run, workload, subzero.Constraints{MaxDiskBytes: subzero.MB(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Plan.Strategies("double") {
		if s.StoresPairs() {
			t.Fatalf("mapping operator got materialized lineage: %v", s)
		}
	}
	// Forced strategies flow through the facade.
	rep, err = sys.OptimizeForced(context.Background(), run, workload, subzero.Constraints{},
		map[string][]subzero.Strategy{"double": {subzero.StratFullOne}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range rep.Plan.Strategies("double") {
		if s == subzero.StratFullOne {
			found = true
		}
	}
	if !found {
		t.Fatalf("forced strategy missing: %v", rep.Plan["double"])
	}
}

func TestStandardKernels(t *testing.T) {
	for _, name := range []string{"gaussian3", "box3", "identity3"} {
		k, err := subzero.StandardKernels(name)
		if err != nil || len(k) != 3 {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := subzero.StandardKernels("bogus"); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Fatal("bogus kernel accepted")
	}
}

func TestMBHelper(t *testing.T) {
	if subzero.MB(1) != 1<<20 || subzero.MB(0.5) != 1<<19 {
		t.Fatalf("MB helper wrong: %d %d", subzero.MB(1), subzero.MB(0.5))
	}
}
