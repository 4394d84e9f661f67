package opt_test

import (
	"context"
	"testing"

	"subzero/internal/array"
	"subzero/internal/genomics"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
	"subzero/internal/opt"
	"subzero/internal/workflow"
)

// captureGenomics runs the genomics workflow at scale under one of its
// named plans and returns the optimizer over that run, the run, and a
// function releasing its stores.
func captureGenomics(t *testing.T, scale int, planName string) (*opt.Optimizer, *workflow.Run, func()) {
	t.Helper()
	data, err := genomics.Generate(genomics.DefaultGenConfig().Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := genomics.NewSpec()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := genomics.Plan(planName)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := kvstore.NewManager(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	exec := workflow.NewExecutor(array.NewVersions(), mgr, lineage.NewCollector())
	run, err := exec.Execute(context.Background(), spec, plan, map[string]*array.Array{"train": data.Train, "test": data.Test})
	if err != nil {
		t.Fatal(err)
	}
	return opt.New(run, exec.Stats()), run, func() { mgr.Close() }
}

// modelVsStores sums, per strategy the plan's UDF stores use, the model's
// bytes and the stores' SizeBytes, logging each store. keep selects the
// strategies.
func modelVsStores(t *testing.T, planName string, o *opt.Optimizer, run *workflow.Run, keep func(lineage.Strategy) bool) (model, size map[lineage.Strategy]int64) {
	t.Helper()
	model, size = map[lineage.Strategy]int64{}, map[lineage.Strategy]int64{}
	for _, node := range genomics.UDFIDs {
		for _, st := range run.Stores(node) {
			s := st.Strategy()
			if !keep(s) {
				continue
			}
			m, err := o.ModelBytes(node, s)
			if err != nil {
				t.Fatal(err)
			}
			ss := st.Stats()
			t.Logf("%s %s %s: %d pairs, %d out, %d in, %d payload B: model %d B, store %d B",
				planName, node, s, ss.Pairs, ss.OutCells, ss.InCells, ss.PayloadBytes, m, st.SizeBytes())
			model[s] += m
			size[s] += st.SizeBytes()
		}
	}
	return model, size
}

// The analytic storage model must price the One encodings close to what
// their stores take on disk. On the genomics workflow at scale 5, the
// model's bytes for each One encoding of the FullOne and PayBoth plans,
// summed over the UDFs from each store's own profiled volumes, are within
// 1.5× of the stores' SizeBytes. Sums, because the optimizer spends one
// budget across the nodes; a store of a few hundred bytes, whose cells all
// share one payload, is logged but not bounded on its own.
func TestOneStoreBytesMatchModel(t *testing.T) {
	if testing.Short() {
		t.Skip("captures the genomics workflow twice")
	}
	for _, planName := range []string{"FullOne", "PayBoth"} {
		o, run, done := captureGenomics(t, 5, planName)
		model, size := modelVsStores(t, planName, o, run, func(s lineage.Strategy) bool { return s.Enc == lineage.One })
		done()
		for s := range size {
			if ratio := float64(model[s]) / float64(size[s]); ratio > 1.5 || ratio < 1/1.5 {
				t.Errorf("%s %s: model %d B is %.2fx the stores' %d B, want within 1.5x", planName, s, model[s], ratio, size[s])
			}
		}
	}
}

// The analytic DiskBytes the optimizer charges an encoding it has not
// measured lands within 2× of what that encoding's stores take, summed
// over the UDFs, for the record-storing plans FullOne, FullMany and PayMany
// on the genomics workflow at test scale (scale 2).
func TestRecordStoreBytesMatchModel(t *testing.T) {
	if testing.Short() {
		t.Skip("captures the genomics workflow three times")
	}
	for _, planName := range []string{"FullOne", "FullMany", "PayMany"} {
		o, run, done := captureGenomics(t, 2, planName)
		model, size := modelVsStores(t, planName, o, run, func(lineage.Strategy) bool { return true })
		done()
		if len(size) != 1 {
			t.Fatalf("%s: stores of %d strategies, want 1", planName, len(size))
		}
		for s := range size {
			ratio := float64(model[s]) / float64(size[s])
			t.Logf("%s %s: model %d B, stores %d B, %.2fx", planName, s, model[s], size[s], ratio)
			if ratio > 2 || ratio < 0.5 {
				t.Errorf("%s %s: model %d B is %.2fx the stores' %d B, want within 2x", planName, s, model[s], ratio, size[s])
			}
		}
	}
}
