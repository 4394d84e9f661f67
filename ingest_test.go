package subzero_test

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"subzero"
	"subzero/internal/astro"
	"subzero/internal/genomics"
)

// capturePipeline builds a system and a spec whose nodes store full
// lineage.
func capturePipeline(t *testing.T) (*subzero.System, *subzero.Spec, subzero.Plan, map[string]*subzero.Array) {
	t.Helper()
	sys, err := subzero.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	spec := subzero.NewSpec("ingest")
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
	src, err := subzero.NewArray("src", subzero.Shape{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := range src.Data() {
		src.Data()[i] = float64(i)
	}
	plan := subzero.Plan{
		"double": {subzero.StratFullOne},
		"smooth": {subzero.StratFullMany},
	}
	return sys, spec, plan, map[string]*subzero.Array{"src": src}
}

func ingestQueries(n int) []subzero.Query {
	queries := make([]subzero.Query, n)
	for i := range queries {
		queries[i] = subzero.Query{
			Direction: subzero.Backward,
			Cells:     []uint64{uint64((i * 13) % 256)},
			Path: []subzero.Step{
				{Node: "smooth", InputIdx: 0},
				{Node: "double", InputIdx: 0},
			},
		}
	}
	return queries
}

// QueryBatch against a completed run must return byte-identical results
// while other workflows of the same system execute and capture lineage —
// capture activity on one run must never bleed into the consistency of
// another. Run under -race.
func TestQueryBatchRacesExecution(t *testing.T) {
	sys, spec, plan, sources := capturePipeline(t)
	ctx := context.Background()
	run, err := sys.Execute(ctx, spec, plan, sources)
	if err != nil {
		t.Fatal(err)
	}
	queries := ingestQueries(24)

	// Reference answers from the fully flushed, quiescent store.
	want, err := sys.QueryBatch(ctx, run, queries, subzero.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range want.Errs {
		if e != nil {
			t.Fatalf("reference query %d failed: %v", i, e)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	execErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r, err := sys.Execute(ctx, spec, plan, sources)
			if err != nil {
				execErr <- err
				return
			}
			if err := sys.DropRun(r.ID); err != nil {
				execErr <- err
				return
			}
		}
	}()

	for round := 0; round < 8; round++ {
		got, err := sys.QueryBatch(ctx, run, queries, subzero.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			if got.Errs[i] != nil {
				t.Fatalf("round %d query %d: %v", round, i, got.Errs[i])
			}
			if err := sameCells(got.Results[i], want.Results[i]); err != nil {
				t.Fatalf("round %d query %d: %v", round, i, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-execErr:
		t.Fatal(err)
	default:
	}
}

// WithIngest is kept only so that existing callers compile: a system given
// it must capture exactly what a system without it does — the same files,
// byte for byte, in its storage directory — and answer the same queries.
func TestWithIngestIsIgnored(t *testing.T) {
	ctx := context.Background()
	type system struct {
		sys *subzero.System
		dir string
		gen *subzero.Run
	}
	build := func(opts ...subzero.Option) system {
		dir := t.TempDir()
		sys, err := subzero.NewSystem(append(opts, subzero.WithStorageDir(dir))...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		gplan, err := genomics.Plan("PayBoth")
		if err != nil {
			t.Fatal(err)
		}
		gspec, err := genomics.NewSpec()
		if err != nil {
			t.Fatal(err)
		}
		cfg := genomics.DefaultGenConfig().Scaled(5)
		cfg.Seed = 1
		data, err := genomics.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := sys.Execute(ctx, gspec, gplan, map[string]*subzero.Array{"train": data.Train, "test": data.Test})
		if err != nil {
			t.Fatal(err)
		}
		aplan, err := astro.Plan("SubZero")
		if err != nil {
			t.Fatal(err)
		}
		aspec, err := astro.NewSpec()
		if err != nil {
			t.Fatal(err)
		}
		sky, err := astro.Generate(astro.DefaultGenConfig().Scaled(0.25))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Execute(ctx, aspec, aplan, map[string]*subzero.Array{"img1": sky.Exposure1, "img2": sky.Exposure2}); err != nil {
			t.Fatal(err)
		}
		return system{sys, dir, gen}
	}
	plain, ignored := build(), build(subzero.WithIngest(4, 2))

	want, got := storeFiles(t, plain.dir), storeFiles(t, ignored.dir)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("%d store files with WithIngest, %d without", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: missing with WithIngest", name)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: bytes differ with WithIngest", name)
		}
	}

	wantQ, err := genomics.Queries(plain.gen)
	if err != nil {
		t.Fatal(err)
	}
	gotQ, err := genomics.Queries(ignored.gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range genomics.QueryNames {
		a, err := plain.sys.Query(ctx, plain.gen, wantQ[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := ignored.sys.Query(ctx, ignored.gen, gotQ[name])
		if err != nil {
			t.Fatalf("%s with WithIngest: %v", name, err)
		}
		if err := sameCells(b, a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// storeFiles reads every file under a storage directory, by path relative
// to it.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// sameCells asserts two query results carry identical result bitmaps.
func sameCells(got, want *subzero.QueryResult) error {
	g, w := got.Cells(), want.Cells()
	if len(g) != len(w) {
		return fmt.Errorf("result has %d cells, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("cell %d = %d, want %d", i, g[i], w[i])
		}
	}
	return nil
}
