// Package ignorecheck is a lint fixture for the suppression
// machinery itself: a directive without a reason is a finding and does
// not suppress anything, and a directive naming a different check
// leaves the original diagnostic standing. This fixture is asserted
// directly by a Go test rather than with want comments, because the
// expected diagnostics land on the directive lines themselves.
package ignorecheck

import "context"

// Bare carries a reasonless directive: both the directive and the
// unsuppressed finding must be reported.
func Bare() context.Context {
	//lint:ignore subzero/ctxflow
	return context.Background()
}

// WrongName suppresses the wrong check: the ctxflow finding stands.
func WrongName() context.Context {
	//lint:ignore subzero/wiretag this reason applies to another analyzer
	return context.Background()
}
