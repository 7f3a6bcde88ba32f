package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// servingSession builds a server with n policy-attached sessions, each
// stepped once so the decide path no longer needs the synthetic first
// window, and returns the server plus the session objects.
func servingSessions(t testing.TB, n int) (*httptest.Server, []*session) {
	t.Helper()
	srv := NewServer(WithMaxSessions(n + 1))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := &client{srv: ts}
	sessions := make([]*session, n)
	for i := range sessions {
		var info SessionInfo
		if status := doRaw(t, c, "POST", "/v1/sessions", CreateRequest{
			Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: int64(i + 1),
		}, &info); status != http.StatusCreated {
			t.Fatalf("create status %d", status)
		}
		if status := doRaw(t, c, "POST", "/v1/sessions/"+info.ID+"/policy", testPolicy(2, 2), nil); status != http.StatusOK {
			t.Fatalf("policy attach status %d", status)
		}
		if status := doRaw(t, c, "POST", "/v1/sessions/"+info.ID+"/step", StepRequest{}, nil); status != http.StatusOK {
			t.Fatalf("warm-up step status %d", status)
		}
		sessions[i] = srv.sessionByID(info.ID)
	}
	return ts, sessions
}

// doRaw is client.do usable from both tests and benchmarks (testing.TB).
func doRaw(t testing.TB, c *client, method, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, c.srv.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// TestPolicyDecideZeroAlloc pins the serving hot path's allocation budget:
// once a session's decide scratch is warm, a healthy policy decision
// allocates nothing.
func TestPolicyDecideZeroAlloc(t *testing.T) {
	_, sessions := servingSessions(t, 1)
	sess := sessions[0]
	sess.mu.Lock()
	defer sess.mu.Unlock()
	// Warm the scratch outside the measured region.
	if _, _, err := sess.decideAuto(nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		alloc, controller, err := sess.decideAuto(nil)
		if err != nil || controller != "policy" || len(alloc) == 0 {
			t.Fatalf("decideAuto: alloc=%v controller=%q err=%v", alloc, controller, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("policy decide path: %v allocs/run, want 0", allocs)
	}
}

// TestConcurrentAutoStepsIsolated drives many sessions concurrently through
// the HTTP step endpoint (run with -race to validate the locking): each
// session's windows advance exactly as many times as it was stepped, and
// every session stays on its own policy controller.
func TestConcurrentAutoStepsIsolated(t *testing.T) {
	const nSessions, stepsEach = 6, 8
	ts, sessions := servingSessions(t, nSessions)
	var wg sync.WaitGroup
	var failures atomic.Int64
	for _, sess := range sessions {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for k := 0; k < stepsEach; k++ {
				resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/step", "application/json", bytes.NewReader([]byte("{}")))
				if err != nil {
					failures.Add(1)
					return
				}
				var step StepResponse
				decodeErr := json.NewDecoder(resp.Body).Decode(&step)
				resp.Body.Close()
				if decodeErr != nil || resp.StatusCode != http.StatusOK || step.Controller != "policy" {
					failures.Add(1)
					return
				}
			}
		}(sess.id)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d session workers failed", failures.Load())
	}
	for _, sess := range sessions {
		sess.mu.Lock()
		windows, ops := sess.env.Window(), len(sess.env.Ops())
		sess.mu.Unlock()
		if windows != stepsEach+1 || ops != stepsEach+1 {
			t.Fatalf("session %s: windows=%d ops=%d, want %d", sess.id, windows, ops, stepsEach+1)
		}
	}
}

// TestAutoStepOpsLogIndependent checks auto-step replay-log entries do not
// alias the decide scratch: two logged allocations from different windows
// must be distinct slices with their recorded values intact.
func TestAutoStepOpsLogIndependent(t *testing.T) {
	ts, sessions := servingSessions(t, 1)
	for k := 0; k < 3; k++ {
		if status := doRaw(t, &client{srv: ts}, "POST", "/v1/sessions/"+sessions[0].id+"/step", StepRequest{}, nil); status != http.StatusOK {
			t.Fatalf("step %d status %d", k, status)
		}
	}
	sess := sessions[0]
	sess.mu.Lock()
	defer sess.mu.Unlock()
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
	_, sessions := servingSessions(b, nSessions)
	var nextSess atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess := sessions[int(nextSess.Add(1)-1)%nSessions]
		for pb.Next() {
			sess.mu.Lock()
			alloc, _, err := sess.decideAuto(nil)
			sess.mu.Unlock()
			if err != nil || len(alloc) == 0 {
				panic(fmt.Sprintf("decideAuto: %v %v", alloc, err))
			}
		}
	})
}
