// Package poolreturn is a lint fixture: values obtained from
// bitmap.Pool.Get or sync.Pool.Get must reach the matching Put on every
// return path, unless ownership is transferred out of the function.
package poolreturn

import (
	"errors"
	"sync"

	"subzero/internal/bitmap"
	"subzero/internal/grid"
)

var scratch = sync.Pool{New: func() any { return new([]byte) }}

// Deferred covers every path with one deferred Put: not flagged.
func Deferred() int {
	b := scratch.Get().(*[]byte)
	defer scratch.Put(b)
	return len(*b)
}

// EarlyReturn leaks the pooled bitmap on the error path.
func EarlyReturn(pool *bitmap.Pool, sp *grid.Space, fail bool) error {
	bm := pool.Get(sp)
	if fail {
		return errors.New("abort") // want `return leaks pooled value "bm"`
	}
	pool.Put(bm)
	return nil
}

// NeverPut uses the pooled value but never returns it on any path.
func NeverPut() int {
	b := scratch.Get().(*[]byte) // want `"b" is obtained from a pool but never returned with Put on any path`
	return len(*b)
}

// DroppedResult discards the Get result outright.
func DroppedResult() {
	scratch.Get() // want `result of pool Get is dropped`
}

// Handoff transfers ownership to the caller: not flagged.
func Handoff(pool *bitmap.Pool, sp *grid.Space) *bitmap.Bitmap {
	bm := pool.Get(sp)
	return bm
}

// Balanced puts before the only return: not flagged.
func Balanced(pool *bitmap.Pool, sp *grid.Space) uint64 {
	bm := pool.Get(sp)
	n := bm.Count()
	pool.Put(bm)
	return n
}

// Suppressed documents a deliberate leak with the ignore directive.
func Suppressed() int {
	//lint:ignore subzero/poolreturn fixture exercising the suppression path
	b := scratch.Get().(*[]byte)
	return len(*b)
}
