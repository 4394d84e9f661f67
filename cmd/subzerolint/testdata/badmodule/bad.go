// Package badmod is a known-bad fixture module: subzerolint must exit
// non-zero when run over it. It violates two invariants — a context is
// minted in library code, and a variable is accessed through a
// pointer-style sync/atomic function instead of a typed atomic.
package badmod

import (
	"context"
	"sync/atomic"
)

var hits int64

// Touch updates hits with a pointer-style atomic, then reads it plainly.
func Touch() int64 {
	atomic.AddInt64(&hits, 1)
	return hits
}

// Mint fabricates a context instead of accepting one from the caller.
func Mint() context.Context {
	return context.Background()
}
