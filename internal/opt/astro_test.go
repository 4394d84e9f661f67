package opt_test

import (
	"context"
	"testing"
	"time"

	"subzero/internal/array"
	"subzero/internal/astro"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
	"subzero/internal/opt"
	"subzero/internal/query"
	"subzero/internal/workflow"
)

// TestOptimizeAstronomyTerminates profiles the 26-node astronomy workflow
// and asks for plans under disk, runtime and combined limits. Each call
// must return a plan within its limits in well under a second: these are
// settings on which a branch-and-bound ILP solve runs for minutes.
func TestOptimizeAstronomyTerminates(t *testing.T) {
	spec, err := astro.NewSpec()
	if err != nil {
		t.Fatal(err)
	}
	sky, err := astro.Generate(astro.DefaultGenConfig().Scaled(0.125))
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := kvstore.NewManager("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	exec := workflow.NewExecutor(array.NewVersions(), mgr, lineage.NewCollector())
	profile := workflow.Plan{}
	for _, id := range astro.BuiltinIDs() {
		profile[id] = []lineage.Strategy{lineage.StratMap}
	}
	for _, id := range []string{astro.NodeCRD1, astro.NodeCRD2, astro.NodeCRRemove} {
		profile[id] = []lineage.Strategy{lineage.StratFullOne, lineage.StratCompOne}
	}
	profile[astro.NodeStarDetect] = []lineage.Strategy{lineage.StratFullOne, lineage.StratPayOne}
	run, err := exec.Execute(context.Background(), spec, profile, map[string]*array.Array{
		"img1": sky.Exposure1, "img2": sky.Exposure2,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := astro.Queries(run)
	if err != nil {
		t.Fatal(err)
	}
	var workload []query.Query
	for _, name := range astro.QueryNames {
		if q, ok := queries[name]; ok {
			workload = append(workload, q)
		}
	}

	choose := func(cons opt.Constraints) *opt.Report {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		start := time.Now()
		rep, err := opt.New(run, exec.Stats()).Choose(ctx, workload, cons)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%+v: %v (after %v)", cons, err, elapsed)
		}
		if elapsed > time.Second {
			t.Fatalf("%+v: plan took %v", cons, elapsed)
		}
		if cons.MaxDiskBytes > 0 && rep.DiskBytes > cons.MaxDiskBytes {
			t.Fatalf("%+v: plan disk %d over budget", cons, rep.DiskBytes)
		}
		if cons.MaxRuntime > 0 && rep.Runtime > cons.MaxRuntime {
			t.Fatalf("%+v: plan runtime %v over limit", cons, rep.Runtime)
		}
		t.Logf("%+v: disk %d, runtime %v, objective %.6g in %v", cons, rep.DiskBytes, rep.Runtime, rep.Objective, elapsed)
		return rep
	}

	unbounded := choose(opt.Constraints{})
	if unbounded.DiskBytes == 0 || unbounded.Runtime == 0 {
		t.Fatalf("unbounded plan stores nothing (%d B, %v): the limits below would not bind", unbounded.DiskBytes, unbounded.Runtime)
	}
	for _, kb := range []int64{512, 1024} {
		choose(opt.Constraints{MaxDiskBytes: kb << 10})
	}
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		disk := int64(frac * float64(unbounded.DiskBytes))
		runtime := time.Duration(frac * float64(unbounded.Runtime))
		choose(opt.Constraints{MaxDiskBytes: disk})
		choose(opt.Constraints{MaxRuntime: runtime})
		choose(opt.Constraints{MaxDiskBytes: disk, MaxRuntime: runtime})
	}
	choose(opt.Constraints{MaxDiskBytes: 1 << 20, MaxRuntime: unbounded.Runtime / 2})
}
