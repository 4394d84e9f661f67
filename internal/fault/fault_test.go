package fault_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"subzero/internal/fault"
)

func TestDisabledInjectIsZeroAlloc(t *testing.T) {
	fault.Reset()
	fault.Register("alloc/test")
	allocs := testing.AllocsPerRun(1000, func() {
		if err := fault.Inject("alloc/test"); err != nil {
			t.Errorf("disabled failpoint injected: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled Inject allocates: %v allocs/op, want 0", allocs)
	}
}

func TestArmErrorAndDisarm(t *testing.T) {
	defer fault.Reset()
	name := fault.Register("test/error")
	if err := fault.Inject(name); err != nil {
		t.Fatalf("unarmed point injected: %v", err)
	}
	if err := fault.Arm(name, fault.Action{Kind: fault.KindError, Msg: "boom"}); err != nil {
		t.Fatal(err)
	}
	err := fault.Inject(name)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("armed point returned %v, want ErrInjected", err)
	}
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Point != name || fe.Msg != "boom" {
		t.Fatalf("injected error = %#v", err)
	}
	if got := fault.Hits(name); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	fault.Disarm(name)
	if err := fault.Inject(name); err != nil {
		t.Fatalf("disarmed point injected: %v", err)
	}
}

func TestArmUnregisteredFails(t *testing.T) {
	defer fault.Reset()
	if err := fault.Arm("no/such/point", fault.Action{Kind: fault.KindError}); err == nil {
		t.Fatal("arming an unregistered point succeeded")
	}
}

func TestCountLimitsTriggers(t *testing.T) {
	defer fault.Reset()
	name := fault.Register("test/count")
	if err := fault.Arm(name, fault.Action{Kind: fault.KindError, Count: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := fault.Inject(name); err == nil {
			t.Fatalf("trigger %d: no injection", i)
		}
	}
	if err := fault.Inject(name); err != nil {
		t.Fatalf("exhausted point still injects: %v", err)
	}
	if got := fault.Hits(name); got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
}

func TestPanicAction(t *testing.T) {
	defer fault.Reset()
	name := fault.Register("test/panic")
	if err := fault.Arm(name, fault.Action{Kind: fault.KindPanic}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		pv, ok := r.(*fault.PanicValue)
		if !ok || pv.Point != name {
			t.Fatalf("panicked with %v, want *PanicValue for %s", r, name)
		}
	}()
	_ = fault.Inject(name)
}

func TestDelayAction(t *testing.T) {
	defer fault.Reset()
	name := fault.Register("test/delay")
	if err := fault.Arm(name, fault.Action{Kind: fault.KindDelay, Delay: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := fault.Inject(name); err != nil {
		t.Fatalf("delay action errored: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("delay action returned after %v, want >= 10ms", elapsed)
	}
}

func TestArmSpec(t *testing.T) {
	defer fault.Reset()
	a := fault.Register("spec/a")
	b := fault.Register("spec/b")
	c := fault.Register("spec/c")
	if err := fault.ArmSpec("spec/a=error(no space); spec/b=torn(16) ;spec/c=delay(1ms)"); err != nil {
		t.Fatal(err)
	}
	err := fault.Inject(a)
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Msg != "no space" {
		t.Fatalf("spec/a injected %v", err)
	}
	if err := fault.Inject(b); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("spec/b (torn at plain site) injected %v, want error", err)
	}
	if err := fault.Inject(c); err != nil {
		t.Fatalf("spec/c injected %v, want nil after delay", err)
	}

	for _, bad := range []string{"nonsense", "spec/a=explode", "spec/a=torn(x)", "spec/a=delay(later)", "unregistered/x=error"} {
		if err := fault.ArmSpec(bad); err == nil {
			t.Errorf("spec %q armed without error", bad)
		}
	}
}

func TestRegisteredIsSorted(t *testing.T) {
	fault.Register("zzz/point")
	fault.Register("aaa/point")
	names := fault.Registered()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("Registered() not sorted: %q > %q", names[i-1], names[i])
		}
	}
}

func TestWrapFileTornWrite(t *testing.T) {
	defer fault.Reset()
	path := filepath.Join(t.TempDir(), "torn.log")
	raw, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	f := fault.WrapFile("test/file", raw)

	if _, err := f.Write([]byte("prefix|")); err != nil {
		t.Fatalf("unarmed write: %v", err)
	}
	if err := fault.Arm("test/file/write", fault.Action{Kind: fault.KindTorn, Bytes: 3}); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn write err = %v, want ErrInjected", err)
	}
	if n != 3 {
		t.Fatalf("torn write wrote %d bytes, want 3", n)
	}
	fault.Disarm("test/file/write")

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(blob); got != "prefix|abc" {
		t.Fatalf("file contents = %q, want %q", got, "prefix|abc")
	}
}

func TestAsError(t *testing.T) {
	err := fault.AsError("worker", "boom")
	if got := err.Error(); got != "panic in worker: boom" {
		t.Fatalf("Error() = %q", got)
	}
	if len(err.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if !strings.Contains(string(err.Stack), "goroutine") {
		t.Fatalf("stack looks wrong: %q", err.Stack[:min(64, len(err.Stack))])
	}
}
