package server_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"subzero"
	"subzero/client"
	"subzero/internal/genomics"
	"subzero/internal/server"
)

// sampleLineRE matches one Prometheus text-format sample:
// name, optional {labels}, one space, value.
var sampleLineRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? (-?[0-9][0-9.eE+-]*|[+-]Inf|NaN)$`)

// parseSamples reads an exposition body into sample → value, the key being
// the sample name with its label set exactly as exposed. Comment lines and
// OpenMetrics exemplars are skipped; every other line ends in a space and
// the value.
func parseSamples(text string) (map[string]float64, error) {
	m := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		line, _, _ = strings.Cut(line, " # ")
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			return nil, fmt.Errorf("malformed sample %q", line)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// scrape fetches /v1/metrics through the client and parses it.
func scrape(ctx context.Context, c *client.Client) (map[string]float64, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	return parseSamples(text)
}

// TestMetricsUnderQueryStorm scrapes /v1/metrics while concurrent clients
// hammer query-batch, asserting the exposition stays well-formed, counters
// only move forward, and the final totals reconcile with the work done.
// Run under -race this also shakes out unsynchronized metric updates.
func TestMetricsUnderQueryStorm(t *testing.T) {
	ctx := context.Background()
	sys, err := subzero.NewSystem(subzero.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv, err := server.New(server.Config{System: sys, MaxInFlight: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL)

	info, err := c.Execute(ctx, subzero.WireExecuteRequest{Workflow: "genomics", Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.Run(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	qmap, err := genomics.Queries(run)
	if err != nil {
		t.Fatal(err)
	}
	var queries []subzero.Query
	backward, forward := 0, 0
	for _, qn := range genomics.QueryNames {
		q := qmap[qn]
		queries = append(queries, q)
		if q.Direction == subzero.Forward {
			forward++
		} else {
			backward++
		}
	}

	base, err := scrape(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	baseBackward := base[`subzero_queries_total{direction="backward"}`]
	baseForward := base[`subzero_queries_total{direction="forward"}`]

	// Storm: query-batch clients racing a metrics scraper that checks
	// counter monotonicity on every scrape.
	const clients, rounds = 4, 3
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				br, err := c.QueryBatch(ctx, info.ID, queries, nil)
				if err != nil {
					errs <- err
					return
				}
				if br.Report.Failed != 0 {
					errs <- &client.APIError{Status: 500, Message: strings.Join(br.Errors, "; ")}
					return
				}
			}
		}()
	}
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		prev := map[string]float64{}
		for i := 0; i < 20; i++ {
			m, err := scrape(ctx, c)
			if err != nil {
				errs <- err
				return
			}
			for key, val := range m {
				if !strings.Contains(key, "_total") && !strings.HasSuffix(key, "_count") {
					continue
				}
				if was, ok := prev[key]; ok && val < was {
					errs <- &client.APIError{Status: 0,
						Message: "counter went backwards: " + key}
					return
				}
				prev[key] = val
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-scrapeDone
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Final totals reconcile with the queries actually executed.
	final, err := scrape(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	wantBackward := baseBackward + float64(clients*rounds*backward)
	wantForward := baseForward + float64(clients*rounds*forward)
	if got := final[`subzero_queries_total{direction="backward"}`]; got != wantBackward {
		t.Errorf("backward queries total = %v, want %v", got, wantBackward)
	}
	if got := final[`subzero_queries_total{direction="forward"}`]; got != wantForward {
		t.Errorf("forward queries total = %v, want %v", got, wantForward)
	}

	// Histogram sum must be positive and bounded by aggregate busy time:
	// queries run concurrently on `clients` connections over a pool of 4
	// workers, so summed latency cannot exceed wall * (clients * pool).
	histSum := final[`subzero_query_duration_seconds_sum{direction="backward"}`] +
		final[`subzero_query_duration_seconds_sum{direction="forward"}`]
	if histSum <= 0 {
		t.Errorf("query duration histogram sum = %v, want > 0", histSum)
	}
	if limit := wall.Seconds() * float64(clients*4); histSum > limit {
		t.Errorf("query duration histogram sum %v exceeds busy-time bound %v", histSum, limit)
	}

	// HTTP layer counted the batch posts against the right endpoint.
	if got := final[`subzero_http_requests_total{endpoint="POST /v1/runs/{id}/query-batch"}`]; got < float64(clients*rounds) {
		t.Errorf("query-batch endpoint requests = %v, want >= %d", got, clients*rounds)
	}

	// Workload profile (the /v1/stats view of the same counters) agrees.
	profile, err := c.WorkloadProfile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if float64(profile.BackwardQueries) != wantBackward || float64(profile.ForwardQueries) != wantForward {
		t.Errorf("workload profile mix = %d/%d, want %v/%v",
			profile.BackwardQueries, profile.ForwardQueries, wantBackward, wantForward)
	}
	if len(profile.Classes) != 2 || profile.Classes[0].Class != "backward" || profile.Classes[1].Class != "forward" {
		t.Fatalf("workload profile classes: %+v", profile.Classes)
	}
	for _, class := range profile.Classes {
		if class.Count > 0 && (class.P50NS <= 0 || class.P99NS < class.P50NS) {
			t.Errorf("class %s quantiles implausible: %+v", class.Class, class)
		}
	}
	if len(profile.Operators) == 0 {
		t.Error("workload profile has no operator hit counts")
	}

	// /v1/stats server.* and /v1/metrics read the same series. A 404 first,
	// so the error classes are not all zero; the stats request is answered
	// after it takes its snapshot, so the scrape that follows sees exactly
	// one more ok response than the snapshot's request total implies.
	if _, err := c.Run(ctx, "no-such-run"); err == nil {
		t.Fatal("unknown run did not 404")
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	exposed, err := scrape(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	sv := stats.Server
	if sv.ClientErrors == 0 {
		t.Error("/v1/stats server.client_errors = 0 after a 404")
	}
	for _, row := range []struct {
		field string
		stat  int64
		prom  float64
	}{
		{"requests+1", sv.Requests + 1, exposed[`subzero_http_responses_total{class="ok"}`] +
			exposed[`subzero_http_responses_total{class="client_error"}`] +
			exposed[`subzero_http_responses_total{class="server_error"}`]},
		{"client_errors", sv.ClientErrors, exposed[`subzero_http_responses_total{class="client_error"}`]},
		{"server_errors", sv.ServerErrors, exposed[`subzero_http_responses_total{class="server_error"}`]},
		{"rejected", sv.Rejected, exposed["subzero_http_shed_total"]},
		{"cancelled", sv.Cancelled, exposed["subzero_http_cancelled_total"]},
		{"in_flight", sv.InFlight, exposed["subzero_http_in_flight"]},
	} {
		if float64(row.stat) != row.prom {
			t.Errorf("/v1/stats server.%s = %d, /v1/metrics says %v", row.field, row.stat, row.prom)
		}
	}

	// The raw exposition parses line by line: HELP/TYPE precede samples,
	// every sample matches the text format, histogram _count is consistent.
	checkExposition(t, ts.URL)
}

// checkExposition fetches /v1/metrics raw and validates the text format
// structurally, the way a strict scraper would.
func checkExposition(t *testing.T, baseURL string) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)

	helped := map[string]bool{}
	typed := map[string]bool{}
	sampled := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0]
			if helped[name] {
				t.Errorf("line %d: duplicate HELP for %s", i+1, name)
			}
			helped[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			name := fields[0]
			if !helped[name] {
				t.Errorf("line %d: TYPE for %s before HELP", i+1, name)
			}
			if k := fields[1]; k != "counter" && k != "gauge" && k != "histogram" {
				t.Errorf("line %d: unknown metric kind %q", i+1, k)
			}
			typed[name] = true
		case line == "":
			t.Errorf("line %d: blank line in exposition", i+1)
		default:
			if !sampleLineRE.MatchString(line) {
				t.Errorf("line %d: malformed sample: %q", i+1, line)
				continue
			}
			name := line[:strings.IndexAny(line, "{ ")]
			family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if !typed[family] && !typed[name] {
				t.Errorf("line %d: sample %s before its TYPE", i+1, name)
			}
			sampled[name] = true
		}
	}
	for _, family := range []string{
		"subzero_queries_total",
		"subzero_query_duration_seconds",
		"subzero_query_steps_total",
		"subzero_kvstore_ops_total",
		"subzero_http_requests_total",
		"subzero_http_request_duration_seconds",
		"subzero_http_in_flight",
	} {
		if !typed[family] {
			t.Errorf("exposition missing family %s", family)
		}
	}
	// Every histogram must close with an +Inf bucket equal to _count.
	m, err := parseSamples(text)
	if err != nil {
		t.Fatal(err)
	}
	for key, val := range m {
		idx := strings.Index(key, "_count")
		if idx < 0 {
			continue
		}
		family := key[:idx]
		rest := key[idx+len("_count"):] // "{labels}" or ""
		infKey := family + `_bucket`
		if rest == "" {
			infKey += `{le="+Inf"}`
		} else {
			infKey += rest[:len(rest)-1] + `,le="+Inf"}`
		}
		if inf, ok := m[infKey]; ok && inf != val {
			t.Errorf("%s = %v but +Inf bucket = %v", key, val, inf)
		}
	}
}
