// Package recovercheck is a lint fixture: recover() must bind the
// panic value so containment sites preserve evidence instead of turning
// panics into silent no-ops.
package recovercheck

import "fmt"

// Swallowed discards the panic value outright: flagged.
func Swallowed() {
	defer func() {
		recover() // want `recover\(\) swallows the panic value`
	}()
}

// BlankAssigned routes the value straight to the blank identifier: flagged.
func BlankAssigned() {
	defer func() {
		_ = recover() // want `recover\(\) swallows the panic value`
	}()
}

// ComparedOnly tests for a panic but never binds it — the error that
// escapes says nothing about what went wrong: flagged.
func ComparedOnly() (err error) {
	defer func() {
		if recover() != nil { // want `recover\(\) swallows the panic value`
			err = fmt.Errorf("something panicked")
		}
	}()
	return nil
}

// NilOnLeft is the same comparison with the operands swapped: flagged.
func NilOnLeft() bool {
	defer func() {
		if nil == recover() { // want `recover\(\) swallows the panic value`
			return
		}
	}()
	return true
}

// Bound is the sanctioned idiom: the value is captured and carried into
// the returned error. Not flagged.
func Bound() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic: %v", rec)
		}
	}()
	return nil
}

// Logged hands the value to a sink without the if-binding form: still a
// use of the value, not flagged.
func Logged(sink func(any)) {
	defer func() {
		sink(recover())
	}()
}

// Ignored documents a sanctioned swallow with the standard directive.
func Ignored() {
	defer func() {
		//lint:ignore subzero/recovercheck fixture exercises the directive
		recover()
	}()
}
