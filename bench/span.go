package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// recorder keeps the traced pass's spans in memory. The harness opens a
// span around every call it makes into a layer; nothing inside the program
// under test is touched. A nil recorder records nothing, which is how the
// untraced pass runs the same code.
//
// The mutex is for the HTTP section only, where the handler's span is
// recorded on the server's goroutine while the client's goroutine waits.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	cursor map[int]int64 // per parent: where its next derived child starts
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16), cursor: map[int]int64{}}
}

// begin opens a span and returns its id; parent 0 makes a root, whose id
// then serves as the request id of everything under it.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	req := id
	if parent != 0 {
		req = r.spans[parent-1].Request
	}
	now := int64(time.Since(r.t0))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: req, Name: name, Start: now, End: now})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// derived records a child of which only the duration is known.
func (r *recorder) derived(name string, parent int, d time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	start, ok := r.cursor[parent]
	if !ok {
		start = p.Start
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: p.Request, Name: name,
		Start: start, End: start + int64(d), Derived: true})
	r.cursor[parent] = start + int64(d)
	return id
}

// lastChild returns the most recent span with the given name and parent.
func (r *recorder) lastChild(parent int, name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.spans) - 1; i >= 0 && i >= parent; i-- {
		if s := r.spans[i]; s.Parent == parent && s.Name == name {
			return s.ID
		}
	}
	return 0
}

// durationOf sums the durations of the spans with the given name and counts
// them.
func durationOf(spans []span, name string) (total time.Duration, n int) {
	for _, s := range spans {
		if s.Name == name {
			total += time.Duration(s.End - s.Start)
			n++
		}
	}
	return total, n
}

// write stores the spans with their per-name self times.
func (r *recorder) write(path string, self map[string]int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(struct {
		SelfNS map[string]int64 `json:"self_ns"`
		Spans  []span           `json:"spans"`
	}{self, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
