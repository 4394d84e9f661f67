// Package ctxflow is a lint fixture: context-propagation
// violations in library code, with the diagnostics the check must
// produce and the idioms it must accept.
package ctxflow

import (
	"context"
	"time"
)

// Mint fabricates a context instead of accepting one from the caller.
func Mint() error {
	ctx := context.Background() // want `context\.Background\(\) in library code: accept a context\.Context from the caller and forward it`
	return wait(ctx)
}

// MintTODO is the same straggler spelled with TODO.
func MintTODO() error {
	return wait(context.TODO()) // want `context\.TODO\(\) in library code`
}

// NilGuard is the sanctioned nil-tolerance fallback: not flagged.
func NilGuard(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return wait(ctx)
}

// Dropped accepts a context and never forwards it into the work it does.
func Dropped(ctx context.Context, d time.Duration) time.Duration { // want `context parameter "ctx" is accepted but never forwarded`
	return 2 * d
}

// Second accepts the context in the wrong position.
func Second(d time.Duration, ctx context.Context) error { // want `context\.Context should be the first parameter of Second`
	time.Sleep(d)
	return wait(ctx)
}

// Suppressed documents a deliberate exception with the ignore directive.
func Suppressed() error {
	//lint:ignore subzero/ctxflow fixture exercising the suppression path
	ctx := context.Background()
	return wait(ctx)
}

func wait(ctx context.Context) error {
	t := time.NewTimer(time.Millisecond)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
