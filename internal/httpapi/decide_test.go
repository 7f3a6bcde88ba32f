package httpapi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// servingSessions builds a server with n policy-attached sessions, each
// stepped once so the decide path no longer needs the synthetic first
// window, and returns the session objects.
func servingSessions(t testing.TB, n int) []*session {
	t.Helper()
	srv := NewServer(WithMaxSessions(n))
	sessions := make([]*session, n)
	for i := range sessions {
		sess := admitted(t, srv, CreateRequest{Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: int64(i + 1)})
		if _, err := sess.AttachPolicy(testPolicy(2, 2)); err != nil {
			t.Fatal(err)
		}
		step(t, sess, nil, "")
		sessions[i] = sess
	}
	return sessions
}

// TestPolicyDecideZeroAlloc pins the serving hot path's allocation budget:
// once a session's decide scratch is warm, a healthy policy decision
// allocates nothing.
func TestPolicyDecideZeroAlloc(t *testing.T) {
	sess := servingSessions(t, 1)[0]
	// Warm the scratch outside the measured region.
	if _, _, _, err := sess.decideAuto(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		alloc, controller, cause, err := sess.decideAuto()
		if err != nil || controller != "policy" || cause != "" || len(alloc) == 0 {
			t.Fatalf("decideAuto: alloc=%v controller=%q cause=%q err=%v", alloc, controller, cause, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("policy decide path: %v allocs/run, want 0", allocs)
	}
}

// TestConcurrentAutoStepsIsolated auto-steps many sessions concurrently,
// each under its own lock (run with -race to validate it): each session's
// windows advance exactly as many times as it was stepped, and every
// session stays on its own policy controller.
func TestConcurrentAutoStepsIsolated(t *testing.T) {
	const nSessions, stepsEach = 6, 8
	sessions := servingSessions(t, nSessions)
	var wg sync.WaitGroup
	var failures atomic.Int64
	for _, sess := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < stepsEach; k++ {
				sess.mu.Lock()
				body, err := sess.Step(t.Context(), nil, "")
				ok := err == nil && controllerOf(string(body)) == "policy"
				sess.mu.Unlock()
				if !ok {
					failures.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d session workers failed", failures.Load())
	}
	for _, sess := range sessions {
		if windows, ops := sess.env.Window(), len(sess.env.Ops()); windows != stepsEach+1 || ops != stepsEach+1 {
			t.Fatalf("session %s: windows=%d ops=%d, want %d", sess.id, windows, ops, stepsEach+1)
		}
	}
}

// TestAutoStepOpsLogIndependent checks auto-step replay-log entries do not
// alias the decide scratch: two logged allocations from different windows
// must be distinct slices with their recorded values intact.
func TestAutoStepOpsLogIndependent(t *testing.T) {
	sess := servingSessions(t, 1)[0]
	for k := 0; k < 3; k++ {
		step(t, sess, nil, "")
	}
	ops := sess.env.Ops()
	for i := 1; i < len(ops); i++ {
		a, b := ops[i-1].Alloc, ops[i].Alloc
		if len(a) > 0 && len(b) > 0 && &a[0] == &b[0] {
			t.Fatalf("ops %d and %d share an allocation buffer", i-1, i)
		}
	}
}

// BenchmarkPolicyDecideConcurrent measures the decide hot path under
// concurrent load across many sessions — the case the per-session locking
// and preallocated scratch exist for. Run with -race to validate the
// locking while benchmarking.
func BenchmarkPolicyDecideConcurrent(b *testing.B) {
	const nSessions = 8
	sessions := servingSessions(b, nSessions)
	var nextSess atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess := sessions[int(nextSess.Add(1)-1)%nSessions]
		for pb.Next() {
			sess.mu.Lock()
			alloc, _, _, err := sess.decideAuto()
			sess.mu.Unlock()
			if err != nil || len(alloc) == 0 {
				panic(fmt.Sprintf("decideAuto: %v %v", alloc, err))
			}
		}
	})
}
