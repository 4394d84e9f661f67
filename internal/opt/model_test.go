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
	data, err := genomics.Generate(genomics.DefaultGenConfig().Scaled(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, planName := range []string{"FullOne", "PayBoth"} {
		spec, err := genomics.NewSpec()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := genomics.Plan(planName)
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := kvstore.NewManager(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		exec := workflow.NewExecutor(array.NewVersions(), mgr, lineage.NewCollector())
		run, err := exec.Execute(context.Background(), spec, plan, map[string]*array.Array{"train": data.Train, "test": data.Test})
		if err != nil {
			t.Fatal(err)
		}
		o := opt.New(run, exec.Stats())
		model, size := map[lineage.Strategy]int64{}, map[lineage.Strategy]int64{}
		for _, node := range genomics.UDFIDs {
			for _, st := range run.Stores(node) {
				s := st.Strategy()
				if s.Enc != lineage.One {
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
		mgr.Close()
		for s := range size {
			if ratio := float64(model[s]) / float64(size[s]); ratio > 1.5 || ratio < 1/1.5 {
				t.Errorf("%s %s: model %d B is %.2fx the stores' %d B, want within 1.5x", planName, s, model[s], ratio, size[s])
			}
		}
	}
}
