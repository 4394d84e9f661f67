// Package fault is a deterministic, stdlib-only failpoint framework in
// the style of mature storage engines: named injection points compiled
// into the binary as no-ops, armed per-process (ArmSpec, behind
// subzero-serve's -faults flag) or per-test (programmatic API) with a small action vocabulary — return an error,
// tear a write after N bytes, delay, or panic.
//
// The disabled fast path is one atomic load and must stay allocation-free
// (pinned by an AllocsPerRun test); armed paths may allocate freely.
//
// Injection points are registered at package init of the code that hosts
// them:
//
//	var _ = fault.Register("kvstore/flush")
//
// and consulted inline:
//
//	if err := fault.Inject("kvstore/flush"); err != nil {
//	    return err
//	}
//
// Arming an unregistered point is an error — it catches typos and keeps
// Registered() an honest inventory of real injection sites, which the
// crash-point matrix test iterates.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates failpoint actions.
type Kind int

const (
	// KindError makes Inject return an injected *Error.
	KindError Kind = iota
	// KindTorn, at a wrapped-file write site, writes only the first
	// Bytes bytes of the call before failing; at a plain Inject site it
	// behaves like KindError.
	KindTorn
	// KindDelay sleeps for Delay, then proceeds normally.
	KindDelay
	// KindPanic panics with a *PanicValue naming the point.
	KindPanic
)

// Action is what an armed failpoint does when reached.
type Action struct {
	Kind  Kind
	Msg   string        // KindError/KindTorn: message carried by the injected error
	Bytes int           // KindTorn: bytes written before the failure
	Delay time.Duration // KindDelay: sleep duration
	Count int           // triggers before the point goes quiet; 0 = unlimited
}

// Error is the failure injected at an armed point. It matches
// errors.Is(err, ErrInjected).
type Error struct {
	Point string
	Msg   string
}

func (e *Error) Error() string {
	if e.Msg == "" {
		return "fault: injected failure at " + e.Point
	}
	return "fault: injected failure at " + e.Point + ": " + e.Msg
}

// Is makes every injected error match the ErrInjected sentinel.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// ErrInjected is the sentinel all injected errors match via errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// PanicValue is the value thrown by KindPanic points.
type PanicValue struct{ Point string }

func (v *PanicValue) String() string { return "fault: injected panic at " + v.Point }

type point struct {
	armed     atomic.Pointer[Action]
	remaining atomic.Int64 // countdown when Action.Count > 0
	hits      atomic.Int64
}

var (
	// active counts armed points; zero is the compiled-in no-op fast path.
	active atomic.Int64

	mu     sync.Mutex
	points sync.Map // name -> *point
)

// Register declares a failpoint name and returns it, so hosting packages
// can register at init:
//
//	var fpFlush = fault.Register("kvstore/flush")
//
// Registering the same name twice is harmless.
func Register(name string) string {
	points.LoadOrStore(name, &point{})
	return name
}

// Registered returns all registered failpoint names, sorted.
func Registered() []string {
	var names []string
	points.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	return names
}

// Inject is the injection point. Disabled (no point armed anywhere) it is
// a single atomic load returning nil with zero allocations. An armed
// point applies its action: KindError and KindTorn return an injected
// *Error, KindDelay sleeps, KindPanic panics with a *PanicValue.
func Inject(name string) error {
	if active.Load() == 0 {
		return nil
	}
	a := take(name)
	if a == nil {
		return nil
	}
	switch a.Kind {
	case KindDelay:
		time.Sleep(a.Delay)
		return nil
	case KindPanic:
		panic(&PanicValue{Point: name})
	default:
		return &Error{Point: name, Msg: a.Msg}
	}
}

// take resolves the action armed at name, consuming one trigger from its
// count. It returns nil when the point is unregistered, disarmed, or
// exhausted.
func take(name string) *Action {
	v, ok := points.Load(name)
	if !ok {
		return nil
	}
	p := v.(*point)
	a := p.armed.Load()
	if a == nil {
		return nil
	}
	if a.Count > 0 && p.remaining.Add(-1) < 0 {
		return nil
	}
	p.hits.Add(1)
	return a
}

// Arm activates a registered failpoint with the given action, replacing
// any previous action. Unknown names are an error.
func Arm(name string, a Action) error {
	mu.Lock()
	defer mu.Unlock()
	v, ok := points.Load(name)
	if !ok {
		return fmt.Errorf("fault: arming unregistered failpoint %q", name)
	}
	p := v.(*point)
	p.remaining.Store(int64(a.Count))
	if p.armed.Swap(&a) == nil {
		active.Add(1)
	}
	return nil
}

// Disarm deactivates a failpoint. Unknown or already-quiet names no-op.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	v, ok := points.Load(name)
	if !ok {
		return
	}
	if v.(*point).armed.Swap(nil) != nil {
		active.Add(-1)
	}
}

// Reset disarms every failpoint and clears hit counters. Tests defer it.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points.Range(func(_, v any) bool {
		p := v.(*point)
		if p.armed.Swap(nil) != nil {
			active.Add(-1)
		}
		p.hits.Store(0)
		p.remaining.Store(0)
		return true
	})
}

// Hits reports how many times the named point has triggered since the
// last Reset.
func Hits(name string) int64 {
	v, ok := points.Load(name)
	if !ok {
		return 0
	}
	return v.(*point).hits.Load()
}

// ArmSpec arms failpoints from a compact spec: semicolon-separated
// `name=action` terms where action is one of
//
//	error          error(message)
//	torn(N)        fail a wrapped write after N bytes
//	delay(dur)     sleep, dur in time.ParseDuration syntax
//	panic          panic with a *PanicValue
//
// Example: "kvstore/flush=error(disk full);lineage/decode=error".
// Every named point must be registered.
func ArmSpec(spec string) error {
	for _, term := range strings.Split(spec, ";") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		name, actionStr, ok := strings.Cut(term, "=")
		if !ok {
			return fmt.Errorf("fault: spec term %q: want name=action", term)
		}
		a, err := parseAction(strings.TrimSpace(actionStr))
		if err != nil {
			return fmt.Errorf("fault: spec term %q: %w", term, err)
		}
		if err := Arm(strings.TrimSpace(name), a); err != nil {
			return err
		}
	}
	return nil
}

func parseAction(s string) (Action, error) {
	verb, arg := s, ""
	if open := strings.IndexByte(s, '('); open >= 0 {
		if !strings.HasSuffix(s, ")") {
			return Action{}, fmt.Errorf("unterminated action argument in %q", s)
		}
		verb, arg = s[:open], s[open+1:len(s)-1]
	}
	switch verb {
	case "error":
		return Action{Kind: KindError, Msg: arg}, nil
	case "torn":
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 {
			return Action{}, fmt.Errorf("torn wants a non-negative byte count, got %q", arg)
		}
		return Action{Kind: KindTorn, Bytes: n}, nil
	case "delay":
		d, err := time.ParseDuration(arg)
		if err != nil {
			return Action{}, fmt.Errorf("delay wants a duration, got %q", arg)
		}
		return Action{Kind: KindDelay, Delay: d}, nil
	case "panic":
		return Action{Kind: KindPanic}, nil
	default:
		return Action{}, fmt.Errorf("unknown action %q", verb)
	}
}
