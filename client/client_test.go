package client_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"subzero"
	"subzero/client"
)

// TestWithTraceparentPropagates asserts every client request issued with
// a traceparent-carrying context sends the header, including the raw
// /v1/metrics fetch that bypasses do().
func TestWithTraceparentPropagates(t *testing.T) {
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	var got []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.Header.Get("Traceparent"))
		if strings.HasSuffix(r.URL.Path, "/metrics") {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.Write([]byte("m_total 1\n"))
			return
		}
		json.NewEncoder(w).Encode(subzero.WireHealth{Status: "ok"})
	}))
	defer ts.Close()

	c := client.New(ts.URL)
	ctx := client.WithTraceparent(context.Background(), tp)
	if _, err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("requests seen: %d, want 2", len(got))
	}
	for i, h := range got {
		if h != tp {
			t.Errorf("request %d traceparent = %q, want %q", i, h, tp)
		}
	}
	// Without the helper the header is absent.
	got = nil
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got[0] != "" {
		t.Errorf("unexpected traceparent %q on plain context", got[0])
	}
}
