// Package invariant is the zero-dependency runtime-verification layer for
// the emulation stack. Every figure this repository reproduces rests on the
// emulator being silently correct: a conservation or synchronisation bug in
// the cluster or environment corrupts rewards without failing any unit test,
// and the model-based learner then faithfully optimises the wrong system.
// This package lets each layer compile its own invariants into hot paths
// behind one cheap enable flag, so the same binaries that produce results
// can prove, per control window, that the system they simulated was sane.
//
// # Usage
//
// Hot paths guard inline assertions with Enabled, which costs one atomic
// load when checks are off:
//
//	if invariant.Enabled() {
//	    invariant.Checkf("cluster/conservation",
//	        submitted == completed+inflight+dropped,
//	        "submitted %d != completed %d + inflight %d + dropped %d", ...)
//	}
//
// Long-lived objects (a cluster, an environment) register named closures in
// a Set at construction and run the whole set at natural checkpoints (window
// boundaries). Set.Run is a no-op while checks are disabled.
//
// Checks are enabled programmatically (Enable) or by setting the
// MIRAS_INVARIANTS environment variable to 1/true/on before process start —
// cmd/miras' end-to-end tests start their processes so. A violation calls the
// installed handler; the default handler panics so violating runs fail
// loudly. Tests swap in a collecting handler via SetHandler.
package invariant

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// enabled gates every check. An atomic is required because the HTTP server
// drives sessions from concurrent goroutines; the load is ~1ns, cheap enough
// for per-event hot paths.
var enabled atomic.Bool

// violations counts every reported violation for the lifetime of the
// process, independent of the installed handler.
var violations atomic.Uint64

func init() {
	switch os.Getenv("MIRAS_INVARIANTS") {
	case "1", "true", "on":
		enabled.Store(true)
	}
}

// Enable turns runtime invariant checking on or off process-wide.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether invariant checking is on. Hot paths branch on it
// before building any check arguments.
func Enabled() bool { return enabled.Load() }

// Violations returns the total number of invariant violations reported since
// process start (counted even when a non-panicking handler is installed).
func Violations() uint64 { return violations.Load() }

// Violation describes one failed check.
type Violation struct {
	// Check is the stable check name, conventionally "<package>/<what>".
	Check string
	// Detail is the formatted failure message.
	Detail string
}

// Error implements error so violations can flow through error channels.
func (v Violation) Error() string {
	return fmt.Sprintf("invariant violated: %s: %s", v.Check, v.Detail)
}

// handler is invoked for every violation. Guarded by handlerMu rather than
// an atomic so SetHandler(nil) can restore the default without races.
var (
	handlerMu sync.RWMutex
	handler   func(Violation)
)

// SetHandler installs h as the violation handler and returns the previously
// installed one (nil for the default). Passing nil restores the default
// handler, which panics with the violation's Error string. Tests use this to
// capture violations instead of crashing:
//
//	var got []invariant.Violation
//	prev := invariant.SetHandler(func(v invariant.Violation) { got = append(got, v) })
//	defer invariant.SetHandler(prev)
func SetHandler(h func(Violation)) func(Violation) {
	handlerMu.Lock()
	defer handlerMu.Unlock()
	prev := handler
	handler = h
	return prev
}

// Fail reports a violation of the named check, formatting the detail. It
// counts the violation and dispatches it to the handler (panicking by
// default). Fail fires regardless of Enabled so callers can use it for
// unconditional assertions; guarded hot paths reach it only when enabled.
func Fail(check, format string, args ...any) {
	violations.Add(1)
	v := Violation{Check: check, Detail: fmt.Sprintf(format, args...)}
	handlerMu.RLock()
	h := handler
	handlerMu.RUnlock()
	if h != nil {
		h(v)
		return
	}
	panic(v.Error())
}

// Checkf reports a violation of the named check unless ok holds. Callers on
// hot paths should guard with Enabled first so the arguments are not even
// evaluated when checking is off.
func Checkf(check string, ok bool, format string, args ...any) {
	if !ok {
		Fail(check, format, args...)
	}
}

// Set is an ordered collection of named checks owned by one object (a
// cluster, an environment). Registration order is preserved so failure
// reports are deterministic. A Set is not safe for concurrent mutation; in
// this repository each set belongs to a single-threaded simulation object.
type Set struct {
	owner  string
	checks []namedCheck
}

type namedCheck struct {
	name string
	fn   func() error
}

// NewSet returns an empty set. owner prefixes check names in reports
// (conventionally the package or subsystem name).
func NewSet(owner string) *Set { return &Set{owner: owner} }

// Register adds a named check. fn returns nil when the invariant holds and a
// descriptive error when it does not.
func (s *Set) Register(name string, fn func() error) {
	if fn == nil {
		panic("invariant: nil check " + name)
	}
	s.checks = append(s.checks, namedCheck{name: name, fn: fn})
}

// Len returns the number of registered checks.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.checks)
}

// Run evaluates every registered check, reporting each failure via Fail. It
// is a no-op while checking is disabled (one atomic load), so callers place
// it unconditionally at checkpoints. A nil set is a no-op.
func (s *Set) Run() {
	if s == nil || !enabled.Load() {
		return
	}
	for _, c := range s.checks {
		if err := c.fn(); err != nil {
			Fail(s.owner+"/"+c.name, "%s", err.Error())
		}
	}
}
