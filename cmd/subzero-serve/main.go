// Command subzero-serve runs SubZero as a network service: an HTTP/JSON
// API over one lineage System, serving workflow execution, run lifecycle,
// lineage queries (single and batched), optimizer runs, and
// introspection. See the README's "Serving" section for the endpoint
// table and curl examples.
//
//	subzero-serve [-addr :8080] [-dir /var/lib/subzero] [-parallelism 8]
//	              [-max-inflight 64] [-drain-timeout 30s] [-quiet]
//	              [-log-interval 30s] [-slow-query 250ms] [-query-timeout 5s]
//	              [-trace-sample 1.0] [-trace-retain 256] [-pprof]
//	              [-faults spec]
//
// Observability: metrics are exposed in Prometheus text format at
// GET /v1/metrics (OpenMetrics with exemplars under content negotiation);
// every request grows a span tree sampled at -trace-sample, retained in a
// ring of -trace-retain completed traces, and served at GET /v1/traces;
// queries slower than -slow-query are always retained and logged as one
// structured slog record carrying the trace ID. The daemon logs a
// one-line serving summary every -log-interval (quiet mode disables it);
// -pprof mounts net/http/pprof under /debug/pprof/.
//
// Ctrl-C (or SIGTERM) drains: the health check flips to "draining", new
// heavy requests are shed with 503, and in-flight queries run to
// completion (up to -drain-timeout) before the process exits. Lineage is
// a recoverable cache — with -dir unset everything lives in memory, and
// either way a restarted daemon rebuilds state by re-executing workflows.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"subzero"
	"subzero/internal/fault"
	"subzero/internal/server"
	"subzero/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "subzero-serve: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "lineage storage directory, whose *.log files are removed at start (default: in-memory stores)")
	parallelism := flag.Int("parallelism", 0, "query-batch worker pool size (default GOMAXPROCS)")
	maxInFlight := flag.Int("max-inflight", server.DefaultMaxInFlight, "bounded in-flight request cap")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight requests on shutdown")
	quiet := flag.Bool("quiet", false, "disable periodic summary and slow-query logging")
	logInterval := flag.Duration("log-interval", 30*time.Second, "period between serving summary log lines (<=0 disables)")
	slowQuery := flag.Duration("slow-query", 0, "log one structured record per lineage query at least this slow and pin its trace (0 disables)")
	traceSample := flag.Float64("trace-sample", 1.0, "head-based trace sampling probability in [0,1]; sampled inbound traceparents are always traced")
	traceRetain := flag.Int("trace-retain", 0, "completed traces kept for /v1/traces (default 256; slow traces keep a separate quarter-size ring)")
	queryTimeout := flag.Duration("query-timeout", 0, "server-side deadline per query/query-batch request; exceeding it answers 504 (0 disables)")
	faults := flag.String("faults", "", "arm failpoints, e.g. 'kvstore/flush=error;server/handler=panic' (testing only; see internal/fault)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// Failpoint activation; a no-op in normal operation — unarmed
	// failpoints compile to an atomic load.
	if *faults != "" {
		if err := fault.ArmSpec(*faults); err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		logger.Warn("failpoints armed from -faults", "spec", *faults)
	}

	var opts []subzero.Option
	if *dir != "" {
		opts = append(opts, subzero.WithStorageDir(*dir))
	}
	if *parallelism > 0 {
		opts = append(opts, subzero.WithParallelism(*parallelism))
	}
	sys, err := subzero.NewSystem(opts...)
	if err != nil {
		return err
	}
	defer sys.Close()

	reqLogger := logger
	if *quiet {
		reqLogger = nil
	}
	traceCfg := trace.Config{Sample: *traceSample, Slow: *slowQuery}
	if *traceRetain > 0 {
		traceCfg.Capacity = *traceRetain
		traceCfg.SlowCapacity = max(*traceRetain/4, 1)
	}
	srv, err := server.New(server.Config{
		System:       sys,
		MaxInFlight:  *maxInFlight,
		Logger:       reqLogger,
		SlowQuery:    *slowQuery,
		QueryTimeout: *queryTimeout,
		Tracer:       trace.New(traceCfg),
		EnablePprof:  *pprofOn,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic one-line serving summaries from the latency histograms —
	// the replacement for per-request log lines. Quiet mode stays quiet.
	if !*quiet && *logInterval > 0 {
		go func() {
			ticker := time.NewTicker(*logInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					logger.Info("summary", "stats", srv.Summary())
				}
			}
		}()
	}

	hs := &http.Server{Addr: *addr, Handler: srv}

	errc := make(chan error, 1)
	go func() {
		logger.Info("serving",
			"addr", *addr,
			"store", storeDesc(*dir),
			"max_inflight", *maxInFlight,
			"trace_sample", *traceSample)
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop advertising health, shed new work, let active
	// queries finish.
	logger.Info("signal received; draining", "timeout", *drainTimeout)
	// DrainFor records the drain window so shed clients get a Retry-After
	// spanning the remainder instead of a blind constant.
	srv.DrainFor(*drainTimeout)
	// Derive from the signal context without inheriting its cancellation:
	// it has already fired, and the drain deadline must outlive it.
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		logger.Warn("drain incomplete; closing", "err", err)
		hs.Close()
	}
	logger.Info("final summary; bye", "stats", srv.Summary())
	return <-errc
}

func storeDesc(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}
