package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"subzero"
	"subzero/client"
	"subzero/internal/lineage"
	"subzero/internal/server"
)

// env is one set-up of a workload: a System holding the workload's
// executed runs, the mix against them and, where the mix travels over HTTP,
// a server and a client on one loopback connection.
type env struct {
	w        *workload
	seed     int64
	dir      string // lineage directory of a file-backed System, else ""
	sys      *subzero.System
	cat      *server.Catalog
	runs     []*subzero.Run
	ops      []*op
	perRound int

	srv       *httptest.Server
	transport *http.Transport
	cl        *client.Client
	spy       *spy // set while the traced HTTP section serves

	setup   time.Duration // generate, open, execute, build the mix, warm up
	capture time.Duration // summed workflow time of the lineage-on executions
}

// setUp generates the workload's inputs from the seed, opens a System,
// executes the runs, builds the mix and runs one warm-up round. twoP is the
// traced pass's variant for its ungated two-P numbers: batch parallelism 2,
// two ingest shards, no warm-up.
func setUp(ctx context.Context, w *workload, seed int64, scratch string, twoP bool) (*env, error) {
	start := time.Now()
	e := &env{w: w, seed: seed}
	var options []subzero.Option
	if w.fileStore {
		dir, err := os.MkdirTemp(scratch, w.name+"-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		options = append(options, subzero.WithStorageDir(dir))
	}
	if twoP {
		options = append(options, subzero.WithParallelism(2), subzero.WithIngest(2, 0))
	}
	sys, err := subzero.NewSystem(options...)
	if err != nil {
		return nil, err
	}
	e.sys = sys
	if e.cat, err = newCatalog(); err != nil {
		return nil, e.fail(err)
	}
	if w.http {
		if err := e.serve(nil); err != nil {
			return nil, e.fail(err)
		}
	}
	for _, rs := range w.runs {
		run, err := e.execute(ctx, rs)
		if err != nil {
			return nil, e.fail(fmt.Errorf("execute %s/%s: %w", rs.workflow, rs.plan, err))
		}
		e.runs = append(e.runs, run)
		e.capture += run.Elapsed
	}
	// The mix has its own stream, so the same seed draws the same cells
	// whatever the generators consumed.
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	if e.ops, e.perRound, err = w.mix(e, rng); err != nil {
		return nil, e.fail(err)
	}
	if !twoP {
		for _, o := range e.round(0) {
			if _, _, err := e.ask(ctx, o, nil); err != nil {
				return nil, e.fail(fmt.Errorf("warm-up %s: %w", o.name, err))
			}
		}
	}
	e.setup = time.Since(start)
	return e, nil
}

func (e *env) fail(err error) error {
	e.close()
	return err
}

// runSeed is the seed a run's generator gets; 0 selects the catalog's default.
func (e *env) runSeed(rs runSpec) int64 {
	if rs.seeded {
		return e.seed
	}
	return 0
}

// execute runs one catalog workflow with lineage on: through client.Execute
// where the workload is served over HTTP, else through System.Execute.
func (e *env) execute(ctx context.Context, rs runSpec) (*subzero.Run, error) {
	if e.cl != nil {
		info, err := e.cl.Execute(ctx, subzero.WireExecuteRequest{
			Workflow: rs.workflow, Plan: rs.plan, Scale: rs.scale, Seed: e.runSeed(rs),
		})
		if err != nil {
			return nil, err
		}
		return e.sys.Run(info.ID)
	}
	return executeOn(ctx, e.sys, e.cat, rs, e.runSeed(rs))
}

func executeOn(ctx context.Context, sys *subzero.System, cat *server.Catalog, rs runSpec, seed int64) (*subzero.Run, error) {
	wf, err := cat.Get(rs.workflow)
	if err != nil {
		return nil, err
	}
	plan, err := wf.Plan(rs.plan)
	if err != nil {
		return nil, err
	}
	spec, sources, err := wf.Build(rs.scale, seed)
	if err != nil {
		return nil, err
	}
	return sys.Execute(ctx, spec, plan, sources)
}

// serve puts the System behind internal/server with its shipped defaults
// (tracing at 100 %) on a loopback listener, and opens the one client. A
// spy, if given, wraps the handler for the traced HTTP section.
func (e *env) serve(s *spy) error {
	srv, err := server.New(server.Config{System: e.sys, Catalog: e.cat})
	if err != nil {
		return err
	}
	var h http.Handler = srv
	if s != nil {
		s.next = srv
		h = s
	}
	e.spy = s
	e.srv = httptest.NewServer(h)
	e.transport = &http.Transport{MaxIdleConnsPerHost: 2}
	e.cl = e.newClient()
	return nil
}

func (e *env) newClient() *client.Client {
	return client.New(e.srv.URL, client.WithHTTPClient(&http.Client{Transport: e.transport, Timeout: time.Minute}))
}

func (e *env) stopServing() {
	if e.srv == nil {
		return
	}
	e.transport.CloseIdleConnections()
	e.srv.Close()
	e.srv, e.cl, e.transport, e.spy = nil, nil, nil, nil
}

// close stops the server, closes the System and removes its files.
func (e *env) close() {
	e.stopServing()
	if e.sys != nil {
		e.sys.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// round returns the ops of the i'th round. Workloads whose mix is one round
// get the same ops every time; the microbenchmark walks its pool.
func (e *env) round(i int) []*op {
	at := (i * e.perRound) % len(e.ops)
	return e.ops[at : at+e.perRound]
}

// uniqueOps lists every distinct op of the mix once, in order.
func (e *env) uniqueOps() []*op {
	seen := map[*op]bool{}
	var out []*op
	for _, o := range e.ops {
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}

func (e *env) queryOptions() subzero.QueryOptions {
	opts := subzero.DefaultQueryOptions()
	opts.Dynamic = !e.w.static
	return opts
}

// stores calls fn for every lineage store of the env's runs.
func (e *env) stores(fn func(*lineage.Store)) {
	for _, run := range e.runs {
		run.EachStore(func(_ string, st *lineage.Store) { fn(st) })
	}
}

// sourceBytes is the size of the arrays the runs were given: the paper's
// "inputs", the denominator of the storage overhead.
func (e *env) sourceBytes() (int64, error) {
	var total int64
	for _, run := range e.runs {
		seen := map[string]bool{}
		for _, node := range run.Spec.Nodes() {
			ins, err := run.Inputs(node.ID)
			if err != nil {
				return 0, err
			}
			for i, in := range node.Inputs {
				if in.External != "" && !seen[in.External] {
					seen[in.External] = true
					total += ins[i].MemoryBytes()
				}
			}
		}
	}
	return total, nil
}

// fingerprint identifies an answer: how many cells, and a hash of them in
// ascending order.
type fingerprint struct {
	n, hash uint64
}

func fingerprintOf(cells []uint64) fingerprint {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range cells {
		binary.LittleEndian.PutUint64(b[:], c)
		h.Write(b[:])
	}
	return fingerprint{uint64(len(cells)), h.Sum64()}
}

// stepTime is one step of an answer's path as the executor reported it.
type stepTime struct {
	path     string
	elapsed  time.Duration
	fellBack bool
}

// answer is what one executed op returned.
type answer struct {
	cells []uint64
	exec  time.Duration // the executor's own Elapsed
	steps []stepTime
	root  int // the call's span, 0 when untraced
}

// ask sends one op the way the workload's mix travels and returns the
// answer with the time the call took. With a recorder the call is a root
// span.
func (e *env) ask(ctx context.Context, o *op, rec *recorder) (answer, time.Duration, error) {
	if e.w.http {
		return e.askHTTP(ctx, o, rec)
	}
	return e.askSystem(ctx, o, rec)
}

func (e *env) askSystem(ctx context.Context, o *op, rec *recorder) (answer, time.Duration, error) {
	opts := e.queryOptions()
	root := rec.begin("System.Query", 0)
	start := time.Now()
	res, err := e.sys.QueryWith(ctx, o.run, o.q, opts)
	took := time.Since(start)
	rec.end(root)
	if err != nil {
		return answer{}, took, err
	}
	// Sized exactly: grown by appending, the slice's allocated bytes would
	// jump at each doubling and make alloc_kb_per_query step with the seed.
	cells := res.Bitmap.Cells(make([]uint64, 0, res.Bitmap.Count()))
	a := answer{cells: cells, exec: res.Elapsed, root: root, steps: make([]stepTime, len(res.Steps))}
	for i, st := range res.Steps {
		a.steps[i] = stepTime{st.AccessPath, st.Elapsed, st.FellBack}
	}
	return a, took, nil
}

func (e *env) askHTTP(ctx context.Context, o *op, rec *recorder) (answer, time.Duration, error) {
	var wire *subzero.WireQueryOptions
	if e.w.static {
		off := false
		wire = &subzero.WireQueryOptions{Dynamic: &off}
	}
	root := rec.begin("client.Query", 0)
	if e.spy != nil {
		e.spy.root.Store(int64(root))
	}
	start := time.Now()
	res, err := e.cl.Query(ctx, o.run.ID, o.q, wire)
	took := time.Since(start)
	rec.end(root)
	if err != nil {
		return answer{}, took, err
	}
	a := answer{cells: res.Cells, exec: time.Duration(res.ElapsedNS), root: root, steps: make([]stepTime, len(res.Steps))}
	for i, st := range res.Steps {
		a.steps[i] = stepTime{st.AccessPath, time.Duration(st.ElapsedNS), st.FellBack}
	}
	return a, took, nil
}

// spy is the harness's middleware around the server's handler: a span per
// request under the client's, and a count of the response bytes.
type spy struct {
	next  http.Handler
	rec   atomic.Pointer[recorder] // nil until the traced rounds begin
	root  atomic.Int64             // the client span the next request belongs to
	bytes atomic.Int64
}

func (s *spy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := s.rec.Load()
	id := rec.begin("server.handler", int(s.root.Load()))
	s.next.ServeHTTP(&countingWriter{w, &s.bytes}, r)
	rec.end(id)
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return c.ResponseWriter.Write(p)
}

// tally counts operations attempted and failed; a wrong answer is a failure.
type tally struct {
	attempted, failed int
	firstFailure      string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		if t.firstFailure == "" {
			t.firstFailure = fmt.Sprintf(format, args...)
		}
	}
}

// verify establishes the answer every op must give, before any timing:
// in process first; oracle ops cell for cell against a run of the same
// workflow, scale and seed under the BlackBox plan, where every step is
// answered by re-executing the operator; ops of one group against each
// other; and, where the mix travels over HTTP, the served answer cell for
// cell against the in-process one. It returns, per run of the env, what the
// same workflow took to execute under the BlackBox plan.
func (e *env) verify(ctx context.Context, t *tally) (blackbox []time.Duration, err error) {
	oracleSys, err := subzero.NewSystem()
	if err != nil {
		return nil, err
	}
	defer oracleSys.Close()
	// One oracle run serves every plan of the same workflow, scale and seed.
	oracleRuns := map[runSpec]*subzero.Run{}
	oracleOf := map[*subzero.Run]*subzero.Run{}
	for i, rs := range e.w.runs {
		seed := e.runSeed(rs)
		rs.plan = "BlackBox"
		or, ok := oracleRuns[rs]
		if !ok {
			if or, err = executeOn(ctx, oracleSys, e.cat, rs, seed); err != nil {
				return nil, fmt.Errorf("oracle %s: %w", rs.workflow, err)
			}
			oracleRuns[rs] = or
		}
		oracleOf[e.runs[i]] = or
		blackbox = append(blackbox, or.Elapsed)
	}
	byGroup := map[string][]uint64{}
	oracleByGroup := map[string][]uint64{}
	for _, o := range e.uniqueOps() {
		a, _, err := e.askSystem(ctx, o, nil)
		t.check(err == nil, "%s in process: %v", o.name, err)
		if err != nil {
			continue
		}
		o.want = fingerprintOf(a.cells)
		if o.group != "" {
			if first, ok := byGroup[o.group]; ok {
				t.check(slices.Equal(first, a.cells), "%s: plans of group %s disagree", o.name, o.group)
			} else {
				byGroup[o.group] = a.cells
			}
		}
		if o.oracle {
			want, known := oracleByGroup[o.group]
			if !known {
				res, err := oracleSys.Query(ctx, oracleOf[o.run], o.q)
				if err != nil {
					return nil, fmt.Errorf("oracle %s: %w", o.name, err)
				}
				want = res.Cells()
				if o.group != "" {
					oracleByGroup[o.group] = want
				}
			}
			t.check(slices.Equal(want, a.cells), "%s: %d cells, black-box re-execution gives %d", o.name, len(a.cells), len(want))
		}
		if e.w.http {
			served, _, err := e.askHTTP(ctx, o, nil)
			t.check(err == nil && slices.Equal(served.cells, a.cells), "%s over HTTP differs from in process (%v)", o.name, err)
		}
	}
	return blackbox, nil
}
