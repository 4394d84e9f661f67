package query_test

import (
	"context"
	"testing"

	"subzero/internal/lineage"
	"subzero/internal/query"
)

// The twin of trace.TestOffPathAllocFree at the call sites: an unsampled
// query must not pay for spans it never starts. 16 is what Execute and one
// map step allocate for their own results and scratch; a span name built
// before the nil-parent check adds one allocation per query and one per
// step.
func TestUnsampledQueryBuildsNoSpanNames(t *testing.T) {
	exec, run := buildRun(t, mapPlan([]lineage.Strategy{lineage.StratPayOne}))
	qe := query.New(run, exec.Stats(), query.Options{EntireArray: true, Dynamic: false})
	q := query.Query{Direction: query.Backward, Cells: []uint64{55}, Path: []query.Step{{Node: "scale"}}}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := qe.Execute(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("unsampled one-step query allocates %.0f/op, want <= 16 (span names built off path?)", allocs)
	}
}
