package main

import "testing"

// TestHelp covers the help subcommand, with and without an analyzer name.
func TestHelp(t *testing.T) {
	if got := run([]string{"help"}); got != 0 {
		t.Errorf("run(help) = %d, want 0", got)
	}
	if got := run([]string{"help", "ctxflow"}); got != 0 {
		t.Errorf("run(help ctxflow) = %d, want 0", got)
	}
}

// TestBadModuleFails pins the contract the CI lint job relies on: a tree
// with violations makes the binary exit 1.
func TestBadModuleFails(t *testing.T) {
	if got := run([]string{"-dir", "testdata/badmodule", "./..."}); got != 1 {
		t.Fatalf("run over the bad module = %d, want 1", got)
	}
}

// TestUnknownPatternErrors distinguishes loader errors (exit 2) from
// findings (exit 1).
func TestUnknownPatternErrors(t *testing.T) {
	if got := run([]string{"-dir", "testdata/badmodule", "./nosuchpkg"}); got != 2 {
		t.Fatalf("run over a bogus pattern = %d, want 2", got)
	}
}
