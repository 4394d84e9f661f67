package fault

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a recovered panic converted into a structured error by
// the containment layers (query-batch workers, HTTP handlers). It preserves the panic value and the goroutine stack
// at recovery, so the blast site is diagnosable even though the daemon
// kept running.
type PanicError struct {
	Op    string // the operation that panicked, e.g. "query batch worker"
	Value any    // the recovered value
	Stack []byte // debug.Stack() at the recovery site
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %v", e.Op, e.Value)
}

// AsError wraps a recovered panic value into a *PanicError, capturing
// the current stack. Call only from a deferred recover site:
//
//	defer func() {
//	    if r := recover(); r != nil {
//	        err = fault.AsError("query batch worker", r)
//	    }
//	}()
func AsError(op string, recovered any) *PanicError {
	return &PanicError{Op: op, Value: recovered, Stack: debug.Stack()}
}
