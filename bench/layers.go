package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"subzero"
	"subzero/internal/binenc"
	"subzero/internal/bitmap"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
	"subzero/internal/microbench"
	"subzero/internal/rtree"
	"subzero/internal/workflow"
)

// tracedRounds is the number of rounds each traced section records.
const tracedRounds = 10

// stepClass folds an executor access path into the three kinds of work a
// step can be: a mapping function, a lookup in a materialized store, or
// re-execution of the operator. A lookup that fell back is both, and is
// counted where its time went: re-execution.
func stepClass(path string) string {
	switch {
	case strings.Contains(path, "reexec"):
		return "reexec"
	case strings.HasPrefix(path, "store") || strings.HasPrefix(path, "composite"):
		return "lookup"
	default: // map, entire-array
		return "map"
	}
}

// deriveSpans hangs what the executor reported about one answer under the
// call's span: its own Elapsed, and under that each step by class.
func deriveSpans(rec *recorder, a answer) {
	parent := a.root
	if handler := rec.lastChild(a.root, "server.handler"); handler != 0 {
		parent = handler
	}
	exec := rec.derived("query.Executor", parent, a.exec)
	for _, st := range a.steps {
		rec.derived("step."+stepClass(st.path), exec, st.elapsed)
	}
}

// traced is the pass that yields the per-layer metrics. It sets the
// workload up once, verifies it, and then walks down the stack: the mix
// over HTTP, the same mix in process, batches, the two-P variants, the
// optimizer, and direct calls into lineage, binenc, rtree and kvstore on
// the probe (the microbenchmark's stores). Every call into a layer is a
// span; the spans and their self times go to traceFile.
func traced(ctx context.Context, w *workload, seed int64, scratch, traceFile string) (*result, error) {
	var t tally
	v := map[string]float64{}
	rec := newRecorder()

	e, err := setUp(ctx, w, seed, scratch, false)
	if err != nil {
		return nil, err
	}
	defer e.close()
	oracleTimes, err := e.verify(ctx, &t)
	if err != nil {
		return nil, err
	}
	var blackbox time.Duration
	for _, d := range oracleTimes {
		blackbox += d
	}
	v["workflow.blackbox_s"] = blackbox.Seconds()
	v["workflow.capture_overhead_x"] = e.capture.Seconds() / blackbox.Seconds()

	// The workload's own entry level, untraced and then traced: the
	// difference is what recording spans costs.
	runtime.GC()
	plain := timedRounds(ctx, e, e.ask, nil, 1, tracedRounds, time.Time{}, &t)
	v["bench.rounds"] = float64(len(plain))
	v["bench.round_iqr_pct"] = 100 * iqrShare(over(plain, func(r roundStat) float64 { return r.total.Seconds() }))

	// The mix over HTTP, with the harness's middleware around the handler.
	e.stopServing()
	if err := e.serve(&spy{}); err != nil {
		return nil, err
	}
	timedRounds(ctx, e, e.askHTTP, nil, 0, 1, time.Time{}, &t) // open the connection
	e.spy.rec.Store(rec)
	mark, bytesBefore := len(rec.spans), e.spy.bytes.Load()
	viaHTTP := timedRounds(ctx, e, e.askHTTP, rec, 1, tracedRounds, time.Time{}, &t)
	respBytes := e.spy.bytes.Load() - bytesBefore
	e.stopServing()
	httpSpans := rec.spans[mark:]
	httpSelf := selfTimes(httpSpans)
	request, n := durationOf(httpSpans, "client.Query")
	handler, _ := durationOf(httpSpans, "server.handler")
	perCall := func(ns int64) float64 { return float64(ns) / 1e3 / float64(n) }
	v["http.request_us"] = perCall(int64(request))
	v["http.handler_us"] = perCall(int64(handler))
	v["http.client_self_us"] = perCall(httpSelf["client.Query"])
	v["http.handler_self_us"] = perCall(httpSelf["server.handler"])
	v["http.self_share_pct"] = 100 * float64(httpSelf["client.Query"]+httpSelf["server.handler"]) / float64(request)
	v["http.resp_bytes_per_query"] = float64(respBytes) / float64(n)

	// The same mix in process; the kvstore counters are the System's own.
	kv := &e.sys.Observability().KV
	calls0, keys0, bytes0, ns0 := kv.GetBatches.Load(), kv.KeysRead.Load(), kv.BytesRead.Load(), kv.GetBatchLatency.Sum()
	mark = len(rec.spans)
	inProcess := timedRounds(ctx, e, e.askSystem, rec, 1, tracedRounds, time.Time{}, &t)
	sysSpans := rec.spans[mark:]
	sysSelf := selfTimes(sysSpans)
	query, n := durationOf(sysSpans, "System.Query")
	perCall = func(ns int64) float64 { return float64(ns) / 1e3 / float64(n) }
	v["system.query_us"] = perCall(int64(query))
	v["query.exec_self_us"] = perCall(sysSelf["query.Executor"])
	var inSteps, inLookups time.Duration
	steps, fellBack := 0, 0
	for _, class := range []string{"map", "lookup", "reexec"} {
		d, k := durationOf(sysSpans, "step."+class)
		inSteps += d
		if class == "lookup" {
			inLookups = d
		}
		steps += k
	}
	v["query.step_us"] = perCall(int64(inSteps))
	v["query.lookup_step_pct"] = 100 * float64(inLookups) / float64(inSteps)
	var cellsOut int
	var backward, forward []float64
	for i, rs := range inProcess {
		for j, o := range e.round(1 + i) {
			if o.q.Direction == subzero.Forward {
				forward = append(forward, ms(rs.took[j]))
			} else {
				backward = append(backward, ms(rs.took[j]))
			}
		}
		cellsOut += rs.cellsOut
		fellBack += rs.fellBack
	}
	v["query.steps_per_query"] = float64(steps) / float64(n)
	v["query.fallback_ratio"] = float64(fellBack) / float64(steps)
	v["query.cells_out_per_query"] = float64(cellsOut) / float64(n)
	fewer := min(len(backward), len(forward))
	pct := tailPercentile(fewer)
	v["system.tail_pct"] = pct
	v["system.tail_samples"] = float64(fewer)
	v["system.bq_tail_ms"] = quantile(backward, pct/100)
	v["system.fq_tail_ms"] = quantile(forward, pct/100)
	v["kvstore.getbatch_calls_per_query"] = float64(kv.GetBatches.Load()-calls0) / float64(n)
	v["kvstore.keys_read_per_query"] = float64(kv.KeysRead.Load()-keys0) / float64(n)
	v["kvstore.bytes_read_per_query"] = float64(kv.BytesRead.Load()-bytes0) / float64(n)
	v["kvstore.getbatch_us_per_query"] = float64(kv.GetBatchLatency.Sum()-ns0) / 1e3 / float64(n)

	// Spans against the harness's own stopwatch around the same calls.
	var stopwatch time.Duration
	for _, rs := range append(viaHTTP, inProcess...) {
		stopwatch += rs.total
	}
	var spanSum int64
	for _, ns := range httpSelf {
		spanSum += ns
	}
	for _, ns := range sysSelf {
		spanSum += ns
	}
	sumError := 100 * math.Abs(float64(spanSum)-float64(stopwatch)) / float64(stopwatch)
	v["bench.span_sum_error_pct"] = sumError
	t.check(sumError < 5, "layer self times sum to %d ns, the traced calls took %d ns", spanSum, stopwatch)
	ownLevel := inProcess
	if w.http {
		ownLevel = viaHTTP
	}
	v["bench.trace_overhead_pct"] = 100 * (qpsOf(e, plain) - qpsOf(e, ownLevel)) / qpsOf(e, plain)

	// One round per run as a batch on one P: what batching itself costs.
	overhead, _, queries, err := e.batches(ctx, rec, &t)
	if err != nil {
		return nil, err
	}
	v["system.batch_overhead_us"] = us(overhead) / float64(queries)

	start := time.Now()
	_, err = e.sys.Optimize(ctx, e.runs[0], e.queriesOn(e.runs[0]), subzero.Constraints{MaxDiskBytes: subzero.MB(20)})
	v["opt.choose_ms"] = ms(time.Since(start))
	t.check(err == nil, "optimize: %v", err)

	var write time.Duration
	var pairs int
	e.stores(func(st *lineage.Store) {
		write += st.Stats().WriteTime
		pairs += st.Stats().Pairs
	})
	v["lineage.write_us_per_pair"] = us(write) / float64(pairs)

	if err := twoP(ctx, w, seed, scratch, v, &t); err != nil {
		return nil, err
	}

	probe := e
	if w.name != "lookup-micro" {
		if probe, err = setUp(ctx, workloadByName("lookup-micro"), seed, scratch, false); err != nil {
			return nil, err
		}
		defer probe.close()
		if _, err := probe.verify(ctx, &t); err != nil {
			return nil, err
		}
	}
	if err := probeLineage(ctx, probe, rec, v, &t); err != nil {
		return nil, err
	}
	probeKernels(probe, rec, v, &t)
	if err := probeKVStore(scratch, seed, rec, v); err != nil {
		return nil, err
	}

	if err := rec.write(traceFile, selfTimes(rec.spans)); err != nil {
		return nil, err
	}
	if t.failed > 0 {
		fmt.Printf("first failure: %s\n", t.firstFailure)
	}
	return newResult(perLayer, v, t.attempted, t.failed)
}

// queriesOn lists the distinct queries of round 0 against one run.
func (e *env) queriesOn(run *subzero.Run) []subzero.Query {
	var qs []subzero.Query
	seen := map[*op]bool{}
	for _, o := range e.round(0) {
		if o.run == run && !seen[o] {
			seen[o] = true
			qs = append(qs, o.q)
		}
	}
	return qs
}

// batches sends round 0 as one QueryBatch per run and returns the time the
// batches took beyond their queries' own, the queries' own, and their count.
func (e *env) batches(ctx context.Context, rec *recorder, t *tally) (overhead, own time.Duration, n int, err error) {
	for _, run := range e.runs {
		qs := e.queriesOn(run)
		if len(qs) == 0 {
			continue
		}
		id := rec.begin("System.QueryBatch", 0)
		br, err := e.sys.QueryBatch(ctx, run, qs, e.queryOptions())
		rec.end(id)
		if err != nil {
			return 0, 0, 0, err
		}
		t.check(br.Report.Failed == 0, "batch on %s: %d queries failed", run.ID, br.Report.Failed)
		overhead += br.Report.Elapsed - br.Report.QueryTime
		own += br.Report.QueryTime
		n += len(qs)
	}
	return overhead, own, n, nil
}

// twoP takes the numbers that need two Ps, none of which is gated: on a
// shared two-vCPU host a parallel speed-up cannot be held to a bound. The
// workload is set up again with two ingest shards and batch parallelism 2.
func twoP(ctx context.Context, w *workload, seed int64, scratch string, v map[string]float64, t *tally) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e, err := setUp(ctx, w, seed, scratch, true)
	if err != nil {
		return err
	}
	defer e.close()
	var enqueue, drain, encode time.Duration
	for _, run := range e.runs {
		cs := run.CaptureStats()
		enqueue += cs.OpWrite
		drain += cs.Drain
		encode += cs.Encode
	}
	v["ingest.sharded_capture_s"] = e.capture.Seconds()
	v["ingest.enqueue_stall_ms"] = ms(enqueue)
	v["ingest.drain_ms"] = ms(drain)
	v["ingest.encode_ms"] = ms(encode)

	for _, o := range e.uniqueOps() { // expected answers, and a warm-up
		a, _, err := e.askSystem(ctx, o, nil)
		if err != nil {
			return err
		}
		o.want = fingerprintOf(a.cells)
	}
	overhead, own, _, err := e.batches(ctx, nil, t)
	if err != nil {
		return err
	}
	v["system.batch_par2_speedup_x"] = float64(own) / float64(own+overhead)

	// Two closed-loop clients, a connection each.
	if e.srv == nil {
		if err := e.serve(nil); err != nil {
			return err
		}
	}
	const clients = 2
	var wg sync.WaitGroup
	tallies := make([]tally, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			peer := *e
			peer.cl = e.newClient()
			timedRounds(ctx, &peer, peer.askHTTP, nil, 0, tracedRounds, time.Time{}, &tallies[c])
		}()
	}
	wg.Wait()
	v["http.conc2_qps"] = float64(clients*tracedRounds*e.perRound) / time.Since(start).Seconds()
	for _, c := range tallies {
		t.attempted += c.attempted
		t.failed += c.failed
		if t.firstFailure == "" {
			t.firstFailure = c.firstFailure
		}
	}

	start = time.Now()
	for _, run := range e.runs {
		if err := e.sys.DropRun(run.ID); err != nil {
			return err
		}
	}
	v["workflow.drop_ms"] = ms(time.Since(start))
	return nil
}

// probeEntries is how many pool entries the direct-call probes visit: at
// about a hundred records per entry, enough to overflow a store's record
// cache, so the lookups are as cold as the microbenchmark's.
const probeEntries = 128

// probeLineage calls Store.Backward and Store.Forward directly on the
// microbenchmark's four stores, and asks the System the same questions, so
// the share of a one-step query that is lineage work can be read off.
func probeLineage(ctx context.Context, probe *env, rec *recorder, v map[string]float64, t *tally) error {
	names := map[string]string{"<-FullOne": "full-one", "<-FullMany": "full-many", "<-PayOne": "pay-one", "->FullOne": "full-one-fwd"}
	perRun := len(probe.runs)
	var direct, viaSystem time.Duration
	var fullOne, fullMany *lineage.Store
	for r, run := range probe.runs {
		plan := probe.w.runs[r].plan
		st := run.Stores(microbench.NodeID)[0]
		switch plan {
		case "<-FullOne":
			fullOne = st
		case "<-FullMany":
			fullMany = st
		}
		stats := st.Stats()
		v["lineage.write_us_per_pair."+names[plan]] = us(stats.WriteTime) / float64(stats.Pairs)

		mc, err := run.MapCtx(microbench.NodeID)
		if err != nil {
			return err
		}
		mc = mc.Clone()
		mapper := run.Spec.Node(microbench.NodeID).Op.(workflow.PayloadMapper)
		mapp := func(out uint64, payload []byte, inputIdx int, dst []uint64) []uint64 {
			return mapper.MapP(mc, out, payload, inputIdx, dst)
		}
		var mine time.Duration
		for i := 0; i < probeEntries; i++ {
			o := probe.ops[i*perRun+r]
			_, took, err := probe.askSystem(ctx, o, nil)
			if err != nil {
				return err
			}
			viaSystem += took
		}
		for i := 0; i < probeEntries; i++ {
			o := probe.ops[i*perRun+r]
			forward := o.q.Direction == subzero.Forward
			q, dst := bitmap.FromCells(mc.OutSpace, o.q.Cells), bitmap.New(mc.InSpaces[0])
			name := "Store.Backward"
			if forward {
				q, dst = bitmap.FromCells(mc.InSpaces[0], o.q.Cells), bitmap.New(mc.OutSpace)
				name = "Store.Forward"
			}
			id := rec.begin(name, 0)
			start := time.Now()
			if forward {
				err = st.Forward(q, dst, 0, mapp, nil)
			} else {
				err = st.Backward(q, dst, 0, mapp, nil, nil)
			}
			mine += time.Since(start)
			rec.end(id)
			t.check(err == nil && dst.Count() == o.want.n, "direct %s on %s: %d cells, want %d (%v)", name, plan, dst.Count(), o.want.n, err)
		}
		direct += mine
		kind := "lineage.backward_us."
		if plan == "->FullOne" {
			kind = "lineage.forward_us."
		}
		v[kind+names[plan]] = us(mine) / probeEntries
	}
	v["lineage.direct_share_pct"] = 100 * float64(direct) / float64(viaSystem)

	// One cell set over and over: every record comes from the cache.
	space := grid.NewSpace(grid.Shape{syntheticSide, syntheticSide})
	hot := bitmap.FromCells(space, probe.ops[0].q.Cells)
	var times []float64
	for i := 0; i < 200; i++ {
		dst := bitmap.New(space)
		id := rec.begin("Store.Backward", 0)
		start := time.Now()
		err := fullOne.Backward(hot, dst, 0, nil, nil, nil)
		times = append(times, us(time.Since(start)))
		rec.end(id)
		if err != nil {
			return err
		}
	}
	v["lineage.hot_backward_us"] = p25(times)

	// Forward through a backward-optimised store: a scan of every record.
	var scan time.Duration
	const scans = 3
	forwardRun := slices.IndexFunc(probe.w.runs, func(rs runSpec) bool { return rs.plan == "->FullOne" })
	for i := 0; i < scans; i++ {
		dst := bitmap.New(space)
		id := rec.begin("Store.Forward", 0)
		start := time.Now()
		err := fullMany.Forward(bitmap.FromCells(space, probe.ops[i*perRun].q.Cells), dst, 0, nil, nil)
		scan += time.Since(start)
		rec.end(id)
		want := probe.ops[i*perRun+forwardRun].want.n
		t.check(err == nil && dst.Count() == want, "scan %d: %d cells, the forward store gives %d (%v)", i, dst.Count(), want, err)
	}
	v["lineage.scan_ms"] = ms(scan) / scans
	return nil
}

// probeKernels times the cell-set codec on the pool's cell sets and the
// R-tree on boxes the size of the synthetic operator's clusters.
func probeKernels(probe *env, rec *recorder, v map[string]float64, t *tally) {
	perRun := len(probe.runs)
	sets := make([][]uint64, probeEntries)
	for i := range sets {
		sets[i] = grid.SortCells(slices.Clone(probe.ops[i*perRun].q.Cells))
		sets[i] = slices.Compact(sets[i])
	}
	const passes = 20
	var encode, decode time.Duration
	var cells, decoded uint64
	var buf []byte
	for p := 0; p < passes; p++ {
		for _, set := range sets {
			id := rec.begin("binenc.AppendCellSetContainers", 0)
			start := time.Now()
			buf = binenc.AppendCellSetContainers(buf[:0], set)
			encode += time.Since(start)
			rec.end(id)
			cells += uint64(len(set))

			id = rec.begin("binenc.DecodeContainersInto", 0)
			start = time.Now()
			_, err := binenc.DecodeContainersInto(buf, func(_, length uint64) bool {
				decoded += length
				return true
			})
			decode += time.Since(start)
			rec.end(id)
			if err != nil {
				t.check(false, "decode containers: %v", err)
			}
		}
	}
	t.check(decoded == cells, "decoded %d cells of %d encoded", decoded, cells)
	v["binenc.encode_ns_per_cell"] = float64(encode) / float64(cells)
	v["binenc.decode_ns_per_cell"] = float64(decode) / float64(cells)

	rng := rand.New(rand.NewSource(probe.seed))
	box := func(radius int) grid.Rect {
		r, c := rng.Intn(syntheticSide-2*radius)+radius, rng.Intn(syntheticSide-2*radius)+radius
		return grid.Rect{Lo: grid.Coord{r - radius, c - radius}, Hi: grid.Coord{r + radius, c + radius}}
	}
	tree := rtree.New(2)
	const items = syntheticSide * syntheticSide / 10
	for i := 0; i < items; i++ {
		if err := tree.Insert(rtree.Item{Rect: box(4), ID: uint64(i)}); err != nil {
			t.check(false, "rtree insert: %v", err)
		}
	}
	const searches = 2000
	var search time.Duration
	hits := 0
	for i := 0; i < searches; i++ {
		q := box(1)
		id := rec.begin("rtree.Search", 0)
		start := time.Now()
		tree.Search(q, func(rtree.Item) bool { hits++; return true })
		search += time.Since(start)
		rec.end(id)
	}
	t.check(hits > 0, "rtree searches found nothing")
	v["rtree.search_us"] = us(search) / searches
}

// probeKVStore calls the two hashtable implementations directly: 50 000
// records of 64 bytes written and read back in batches of 256, then a fifth
// of them overwritten so the log carries dead bytes. The file is in the
// sandbox's page cache, so the file numbers are the sandbox's, not a device's.
func probeKVStore(scratch string, seed int64, rec *recorder, v map[string]float64) error {
	const (
		records = 50_000
		batch   = 256
		reads   = 100
	)
	rng := rand.New(rand.NewSource(seed))
	kvs := make([]kvstore.KV, records)
	var live int64
	for i := range kvs {
		key := fmt.Appendf(nil, "p%08d", i)
		val := make([]byte, 64)
		rng.Read(val)
		kvs[i] = kvstore.KV{Key: key, Val: val}
		live += int64(len(key) + len(val))
	}
	file, err := kvstore.OpenFile(filepath.Join(scratch, fmt.Sprintf("probe-%d.kv", seed)))
	if err != nil {
		return err
	}
	defer file.Close()
	mem := kvstore.NewMem()

	put := func(s kvstore.Store, kvs []kvstore.KV) (time.Duration, int, error) {
		var total time.Duration
		n := 0
		for at := 0; at < len(kvs); at += batch {
			id := rec.begin("kvstore.PutBatch", 0)
			start := time.Now()
			err := kvstore.PutBatch(s, kvs[at:min(at+batch, len(kvs))])
			total += time.Since(start)
			rec.end(id)
			if err != nil {
				return 0, 0, err
			}
			n++
		}
		return total, n, nil
	}
	if _, _, err := put(mem, kvs); err != nil {
		return err
	}
	total, n, err := put(file, kvs)
	if err != nil {
		return err
	}
	v["kvstore.putbatch_us"] = us(total) / float64(n)
	start := time.Now()
	if err := file.Sync(); err != nil {
		return err
	}
	v["kvstore.flush_ms"] = ms(time.Since(start))

	get := func(s kvstore.Store) (float64, error) {
		keys := make([][]byte, batch)
		var total time.Duration
		for r := 0; r < reads; r++ {
			for i := range keys {
				keys[i] = kvs[rng.Intn(records)].Key
			}
			found := 0
			id := rec.begin("kvstore.GetBatch", 0)
			start := time.Now()
			err := kvstore.GetBatch(s, keys, func(_ int, _ []byte, ok bool) bool {
				if ok {
					found++
				}
				return true
			})
			total += time.Since(start)
			rec.end(id)
			if err != nil {
				return 0, err
			}
			if found != batch {
				return 0, fmt.Errorf("kvstore probe: %d of %d keys found", found, batch)
			}
		}
		return us(total) / reads, nil
	}
	if v["kvstore.mem_getbatch_us"], err = get(mem); err != nil {
		return err
	}
	if v["kvstore.file_getbatch_us"], err = get(file); err != nil {
		return err
	}
	if _, _, err := put(file, kvs[:records/5]); err != nil {
		return err
	}
	if err := file.Sync(); err != nil {
		return err
	}
	v["kvstore.log_bytes_per_live_byte"] = float64(file.SizeBytes()) / float64(live)
	return nil
}
