// Package atomicfield is a lint fixture: sync/atomic is used only
// through typed atomics, never the pointer-style functions.
package atomicfield

import "sync/atomic"

// counters mixes both styles on purpose.
type counters struct {
	hits   int64
	misses atomic.Int64
}

var global int64

// Inc uses the pointer-style functions.
func (c *counters) Inc() {
	atomic.AddInt64(&c.hits, 1)   // want `pointer-style sync/atomic call`
	atomic.StoreInt64(&global, 1) // want `pointer-style sync/atomic call`
}

// Hits reads the pointer-style field plainly; the call sites carry the
// finding, not the plain access.
func (c *counters) Hits() int64 {
	return c.hits
}

// Misses uses a typed atomic: not flagged.
func (c *counters) Misses() int64 {
	c.misses.Add(1)
	return c.misses.Load()
}

// Snapshot documents a deliberate pointer-style load with the ignore
// directive.
func (c *counters) Snapshot() int64 {
	//lint:ignore subzero/atomicfield fixture exercising the suppression path
	return atomic.LoadInt64(&c.hits)
}
