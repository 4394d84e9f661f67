// Command ctxflow_main is a lint fixture: package-main context
// rules. Creating the root context is main's job and is not flagged;
// minting a second context while one is already in scope discards it.
package main

import (
	"context"
	"time"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second) // ok: the root context
	defer cancel()
	if err := run(ctx); err != nil {
		panic(err)
	}
	detached()
}

func run(ctx context.Context) error {
	drain, cancel := context.WithTimeout(context.Background(), time.Second) // want `context\.Background\(\) discards "ctx" already in scope`
	defer cancel()
	<-drain.Done()
	return ctx.Err()
}

func detached() {
	first, cancel := context.WithTimeout(context.Background(), time.Millisecond) // ok: nothing in scope yet
	defer cancel()
	second := context.Background() // want `context\.Background\(\) discards "first" already in scope`
	<-first.Done()
	_ = second.Err()
}
