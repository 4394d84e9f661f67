package query_test

import (
	"context"
	"testing"

	"subzero/internal/lineage"
	"subzero/internal/query"
)

// The twin of trace.TestOffPathAllocFree at the call sites: an unsampled
// query must not pay for spans it never starts, nor for access paths it
// never takes. The pins are what Execute and one step allocate for their
// own results and scratch; a span name built before the nil-parent check
// adds one allocation per query and one per step, and a label or closure
// built per candidate instead of per chosen path adds two per candidate.
func TestUnsampledQueryBuildsNoSpanNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		node string
		want float64
	}{
		{"map-step", "scale", 11},
		{"store-step", "mask", 27},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.node == "mask" {
				t.Skip("pooled lookup scratch: sync.Pool drops Puts at random under -race")
			}
			exec, run := buildRun(t, mapPlan([]lineage.Strategy{lineage.StratPayOne}))
			qe := query.New(run, exec.Stats(), query.Options{EntireArray: true, Dynamic: false})
			q := query.Query{Direction: query.Backward, Cells: []uint64{55}, Path: []query.Step{{Node: tc.node}}}
			ctx := context.Background()
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := qe.Execute(ctx, q); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.want {
				t.Fatalf("unsampled one-step query allocates %.0f/op, want <= %.0f", allocs, tc.want)
			}
		})
	}
}
