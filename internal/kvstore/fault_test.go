package kvstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"subzero/internal/fault"
)

// TestTornWriteRecovery injects a torn write below the bufio buffer —
// the exact artifact a mid-append crash leaves — and asserts reopen
// recovers the pre-fault prefix and truncates the partial frame.
func TestTornWriteRecovery(t *testing.T) {
	defer fault.Reset()
	path := filepath.Join(t.TempDir(), "torn.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := putOne(s, []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	// Arm a torn write: the next buffer flush writes 10 bytes of the
	// pending frames, then fails — a partial record at the tail.
	if err := fault.Arm("kvstore/file/write", fault.Action{Kind: fault.KindTorn, Bytes: 10, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := putOne(s, []byte("k-crash"), []byte("v-crash")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("sync over torn write = %v, want injected error", err)
	}
	fault.Reset()
	// Abandon s without Close: the "kill" loses whatever bufio held.

	re, err := OpenFile(path)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer re.Close()
	if got := re.Len(); got != 8 {
		t.Fatalf("recovered %d records, want the 8-record prefix", got)
	}
	for i := 0; i < 8; i++ {
		val, ok, err := lookup(re, []byte(fmt.Sprintf("k%03d", i)))
		if err != nil || !ok {
			t.Fatalf("record k%03d: ok=%v err=%v", i, ok, err)
		}
		if string(val) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("record k%03d = %q", i, val)
		}
	}
	if _, ok, _ := lookup(re, []byte("k-crash")); ok {
		t.Fatal("torn record survived recovery")
	}
}
