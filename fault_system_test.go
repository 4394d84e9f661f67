package subzero_test

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"subzero"
	"subzero/internal/fault"
	"subzero/internal/kvstore"
)

// oneNodeRun executes a single FullOne-materialized identity operator
// and returns the system plus its run.
func oneNodeRun(t *testing.T, opts ...subzero.Option) (*subzero.System, *subzero.Run) {
	t.Helper()
	sys, err := subzero.NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	run, err := executeOneNode(t, sys)
	if err != nil {
		t.Fatal(err)
	}
	return sys, run
}

// executeOneNode runs a single identity operator over an 8-cell source,
// its lineage stored FullOne.
func executeOneNode(t *testing.T, sys *subzero.System) (*subzero.Run, error) {
	t.Helper()
	spec := subzero.NewSpec("fault-test")
	spec.Add("id", subzero.UnaryOp("id", func(x float64) float64 { return x }),
		subzero.FromExternal("src"))
	src, err := subzero.NewArray("src", subzero.Shape{8})
	if err != nil {
		t.Fatal(err)
	}
	return sys.Execute(context.Background(), spec, subzero.Plan{"id": {subzero.StratFullOne}},
		map[string]*subzero.Array{"src": src})
}

// A store whose Flush fails leaves nothing behind, on either backing. The
// node's 8 pairs fill no 64-id record block, so the first hashtable batch
// is the Flush's own partial block: with kvstore/putbatch armed, Execute
// fails, registers no run, and drops every namespace the run opened. A
// background rebuild whose Flush fails drops its @heal namespace the same
// way, and the run keeps its degraded store.
func TestFailedFlushLeavesNothing(t *testing.T) {
	for _, backing := range []string{"mem", "file"} {
		t.Run(backing, func(t *testing.T) {
			defer fault.Reset()
			var opts []subzero.Option
			if backing == "file" {
				opts = append(opts, subzero.WithStorageDir(t.TempDir()))
			}
			sys, err := subzero.NewSystem(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			putBatch := fault.Action{Kind: fault.KindError, Count: 1}
			if err := fault.Arm("kvstore/putbatch", putBatch); err != nil {
				t.Fatal(err)
			}
			if _, err := executeOneNode(t, sys); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("Execute with a failing flush: err = %v, want the injected fault", err)
			}
			if runs, ns := sys.Runs(), sys.KVManager().Namespaces(); len(runs) != 0 || len(ns) != 0 || sys.LineageBytes() != 0 {
				t.Fatalf("failed Execute left runs %v, namespaces %v and %d lineage bytes", runs, ns, sys.LineageBytes())
			}

			run, err := executeOneNode(t, sys)
			if err != nil {
				t.Fatal(err)
			}
			if err := fault.Arm("lineage/lookup/decode", fault.Action{Kind: fault.KindError, Count: 1}); err != nil {
				t.Fatal(err)
			}
			if err := fault.Arm("kvstore/putbatch", putBatch); err != nil {
				t.Fatal(err)
			}
			opts2 := subzero.DefaultQueryOptions()
			opts2.Dynamic = false
			if _, err := sys.QueryWith(context.Background(), run, subzero.BackwardQuery([]uint64{2}, subzero.Step{Node: "id"}), opts2); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for _, _, failures := sys.HealCounts(); failures == 0; _, _, failures = sys.HealCounts() {
				if time.Now().After(deadline) {
					t.Fatal("the rebuild neither failed nor was recorded within the heal window")
				}
				time.Sleep(5 * time.Millisecond)
			}
			for _, ns := range sys.KVManager().Namespaces() {
				if strings.Contains(ns, "@heal") {
					t.Fatalf("failed rebuild left namespace %q", ns)
				}
			}
			if len(sys.DegradedStores()) != 1 {
				t.Fatalf("degraded stores after the failed rebuild: %+v, want the one", sys.DegradedStores())
			}
		})
	}
}

// TestCorruptionFallbackAndHeal is the quarantine loop end to end: a
// record the lookup cannot use degrades the store, the query still
// answers through re-execution, the healer rebuilds the store in the
// background, and once the rebuild swaps in, queries serve from
// materialized lineage again. The loop takes two kinds of input: a decode
// fault injected at lookup time, and a file-backed store whose record
// block holds the record layouts earlier builds wrote (flags 0/1 and 2/3),
// which no decoder is kept for.
func TestCorruptionFallbackAndHeal(t *testing.T) {
	cases := map[string]func(t *testing.T, sys *subzero.System){
		"decode-fault": func(t *testing.T, _ *subzero.System) {
			if err := fault.Arm("lineage/lookup/decode", fault.Action{Kind: fault.KindError, Count: 1}); err != nil {
				t.Fatal(err)
			}
		},
		"stale-format": func(t *testing.T, sys *subzero.System) {
			// The pinned goldens of internal/lineage/compat_test.go: outs
			// {1,5,9} with inputs {0,2},{7} in the per-cell (v1) and
			// run-length (v2) layouts, alternating as the records of ids
			// 0..7 in the run's one store's record block ('B' + uvarint 0:
			// an id count, one length per id, the records).
			stale := [][]byte{
				{0, 3, 1, 4, 4, 2, 2, 0, 2, 1, 7},
				{2, 3, 1, 1, 3, 1, 3, 1, 2, 2, 0, 1, 1, 1, 1, 7, 1},
			}
			block := []byte{8}
			for id := 0; id < 8; id++ {
				block = append(block, byte(len(stale[id%2])))
			}
			for id := 0; id < 8; id++ {
				block = append(block, stale[id%2]...)
			}
			if err := onlyStore(t, sys).PutBatch([]kvstore.KV{{Key: []byte{'B', 0}, Val: block}}); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			defer fault.Reset()
			sys, run := oneNodeRun(t, subzero.WithStorageDir(t.TempDir()))
			q := subzero.BackwardQuery([]uint64{2}, subzero.Step{Node: "id"})
			corrupt(t, sys)

			// Dynamic off: the query-time optimizer's budget abort takes
			// the same fallback as corruption and would mask whether the
			// store degraded.
			opts := subzero.DefaultQueryOptions()
			opts.Dynamic = false
			res, err := sys.QueryWith(context.Background(), run, q, opts)
			if err != nil {
				t.Fatalf("corrupt store must fall back, not fail: %v", err)
			}
			// Black-box answer of the identity operator: the cell itself.
			if cells := res.Cells(); len(cells) != 1 || cells[0] != 2 {
				t.Fatalf("fallback answer wrong: %v", cells)
			}
			if !res.Steps[0].FellBack || !strings.Contains(res.Steps[0].AccessPath, "reexec") {
				t.Fatalf("expected re-execution fallback, got %+v", res.Steps[0])
			}

			// The healer claimed the degraded store and is rebuilding it
			// in the background; wait for the inventory to clear.
			deadline := time.Now().Add(10 * time.Second)
			for len(sys.DegradedStores()) > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("store still degraded after heal window: %+v", sys.DegradedStores())
				}
				time.Sleep(5 * time.Millisecond)
			}
			attempts, successes, failures := sys.HealCounts()
			if attempts < 1 || successes < 1 {
				t.Fatalf("heal not recorded: attempts=%d successes=%d failures=%d", attempts, successes, failures)
			}

			// The swapped-in store holds every pair in the current format.
			var healed []string
			for _, ns := range sys.KVManager().Namespaces() {
				if strings.Contains(ns, "@heal") {
					healed = append(healed, ns)
				}
			}
			if len(healed) != 1 {
				t.Fatalf("healed namespaces = %v, want exactly one", healed)
			}
			kv, err := sys.KVManager().Open(healed[0])
			if err != nil {
				t.Fatal(err)
			}
			records := 0
			if err := kv.Scan(func(key, val []byte) bool {
				if key[0] == 'B' {
					for _, rec := range blockRecords(t, val) {
						records++
						if rec[0] != 4 && rec[0] != 5 {
							t.Errorf("healed record in block %v carries flags %v, want 4 or 5", key, rec[:1])
						}
					}
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if records != 8 {
				t.Fatalf("healed store holds %d pair records, want 8", records)
			}

			// Post-heal, the swapped-in store serves from materialized
			// lineage.
			res2, err := sys.QueryWith(context.Background(), run, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res2.Steps[0].FellBack {
				t.Fatalf("healed store still falling back: %+v", res2.Steps[0])
			}
			if cells := res2.Cells(); len(cells) != 1 || cells[0] != 2 {
				t.Fatalf("healed answer wrong: %v", cells)
			}
		})
	}
}

// blockRecords splits a record block value (an id count, one uvarint
// length per id, the records back to back) into its records.
func blockRecords(t *testing.T, val []byte) [][]byte {
	t.Helper()
	n, dir := int(val[0]), val[1:]
	lens := make([]uint64, n)
	for i := range lens {
		l, k := binary.Uvarint(dir)
		if k <= 0 {
			t.Fatalf("record block directory cut at id %d", i)
		}
		lens[i], dir = l, dir[k:]
	}
	var recs [][]byte
	for _, l := range lens {
		if l > uint64(len(dir)) {
			t.Fatalf("record block length %d runs past its value", l)
		}
		if l > 0 {
			recs = append(recs, dir[:l])
		}
		dir = dir[l:]
	}
	return recs
}

// onlyStore returns the hashtable of the system's single lineage store.
func onlyStore(t *testing.T, sys *subzero.System) kvstore.Store {
	t.Helper()
	spaces := sys.KVManager().Namespaces()
	if len(spaces) != 1 {
		t.Fatalf("namespaces = %v, want exactly one", spaces)
	}
	kv, err := sys.KVManager().Open(spaces[0])
	if err != nil {
		t.Fatal(err)
	}
	return kv
}

// TestQueryBatchPanicContainment: a panic inside one batch query fails
// only that query's slot — the worker survives to drain the rest and
// the batch completes.
func TestQueryBatchPanicContainment(t *testing.T) {
	defer fault.Reset()
	sys, run := oneNodeRun(t)
	q := subzero.BackwardQuery([]uint64{1}, subzero.Step{Node: "id"})

	if err := fault.Arm("lineage/lookup/decode", fault.Action{Kind: fault.KindPanic, Count: 1}); err != nil {
		t.Fatal(err)
	}
	opts := subzero.DefaultQueryOptions()
	opts.Dynamic = false
	queries := []subzero.Query{q, q, q, q}
	br, err := sys.QueryBatch(context.Background(), run, queries, opts)
	if err != nil {
		t.Fatalf("a poisoned query must not fail the batch call: %v", err)
	}
	panics := 0
	for i := range queries {
		if br.Errs[i] == nil {
			if cells := br.Results[i].Cells(); len(cells) != 1 || cells[0] != 1 {
				t.Fatalf("query %d answer wrong: %v", i, cells)
			}
			continue
		}
		if !strings.Contains(br.Errs[i].Error(), "panic in query batch worker") {
			t.Fatalf("query %d: unexpected error %v", i, br.Errs[i])
		}
		panics++
	}
	if panics != 1 {
		t.Fatalf("exactly one query should have died on the panic, got %d", panics)
	}
	if br.Report.Failed != 1 || br.Report.Succeeded != len(queries)-1 {
		t.Fatalf("report miscounts the poisoned query: %+v", br.Report)
	}
}

// System.LineageBytes is the sum of the registered runs' LineageBytes, on
// either backing, so a Many store's in-memory index is charged there too:
// the total exceeds what the hashtables' logs hold.
func TestLineageBytesSumsRuns(t *testing.T) {
	for _, backing := range []string{"mem", "file"} {
		t.Run(backing, func(t *testing.T) {
			var opts []subzero.Option
			if backing == "file" {
				opts = append(opts, subzero.WithStorageDir(t.TempDir()))
			}
			sys, err := subzero.NewSystem(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			spec := subzero.NewSpec("bytes")
			spec.Add("id", subzero.UnaryOp("id", func(x float64) float64 { return x }),
				subzero.FromExternal("src"))
			src, err := subzero.NewArray("src", subzero.Shape{8, 8})
			if err != nil {
				t.Fatal(err)
			}
			var runs []*subzero.Run
			for range 2 {
				run, err := sys.Execute(context.Background(), spec,
					subzero.Plan{"id": {subzero.StratFullOne, subzero.StratFullMany}},
					map[string]*subzero.Array{"src": src})
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, run)
			}
			sum := runs[0].LineageBytes() + runs[1].LineageBytes()
			if got := sys.LineageBytes(); got != sum || sum <= 0 {
				t.Fatalf("LineageBytes = %d, the runs' sum %d", got, sum)
			}
			var logs int64
			for _, ns := range sys.KVManager().Namespaces() {
				kv, err := sys.KVManager().Open(ns)
				if err != nil {
					t.Fatal(err)
				}
				logs += kv.SizeBytes()
			}
			if sum <= logs {
				t.Fatalf("LineageBytes %d charges no index beyond the logs' %d B", sum, logs)
			}
			if err := sys.DropRun(runs[0].ID); err != nil {
				t.Fatal(err)
			}
			if got, want := sys.LineageBytes(), runs[1].LineageBytes(); got != want {
				t.Fatalf("after DropRun LineageBytes = %d, want the remaining run's %d", got, want)
			}
		})
	}
}

// A store lives as long as its process, so a storage directory holds the
// process's own stores' logs and nothing else: not a log an earlier process
// left, nor the metadata sidecars earlier builds wrote, no file beside a
// log after Execute, nor after a background rebuild swaps a healed store in.
func TestStorageDirHoldsOnlyLogs(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	stale := []string{"old-run001_x2fid.log", "old-run001_x2fid.log.meta", "old-run001_x2fid.log.meta.tmp"}
	for _, name := range stale {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	onlyLogs := func(when string) {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) == 0 {
			t.Fatalf("%s: storage directory is empty", when)
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".log") || slices.Contains(stale, e.Name()) {
				t.Fatalf("%s: storage directory holds %s", when, e.Name())
			}
		}
	}
	sys, run := oneNodeRun(t, subzero.WithStorageDir(dir))
	onlyLogs("after Execute")

	if err := fault.Arm("lineage/lookup/decode", fault.Action{Kind: fault.KindError, Count: 1}); err != nil {
		t.Fatal(err)
	}
	opts := subzero.DefaultQueryOptions()
	opts.Dynamic = false
	if _, err := sys.QueryWith(context.Background(), run, subzero.BackwardQuery([]uint64{2}, subzero.Step{Node: "id"}), opts); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, successes, _ := sys.HealCounts(); successes == 0; _, successes, _ = sys.HealCounts() {
		if time.Now().After(deadline) {
			t.Fatal("no rebuild succeeded within the heal window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	onlyLogs("after a heal")
}
