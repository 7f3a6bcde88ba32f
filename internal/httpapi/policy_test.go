package httpapi

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"miras/internal/faults"
	"miras/internal/nn"
	"miras/internal/rl"
	"miras/internal/sim"
)

// testPolicy builds a small untrained but valid policy snapshot.
func testPolicy(stateDim, actionDim int) *rl.PolicySnapshot {
	rng := rand.New(sim.NewSplitMix(9))
	actor := nn.NewNetwork(nn.Config{
		Sizes: []int{stateDim, 8, actionDim}, Hidden: nn.Tanh{}, Output: nn.Softmax{}, AuxLayer: -1,
	}, rng)
	return &rl.PolicySnapshot{
		Actor:    actor,
		NormMean: make([]float64, stateDim),
		NormM2:   make([]float64, stateDim),
	}
}

func TestPolicyAttachAndAutoStep(t *testing.T) {
	c := newClient(t)
	sess := c.createSession(6)

	// Auto-step before any policy is attached is a conflict.
	status, body := c.rawDo("POST", "/v1/sessions/"+sess.ID+"/step", `{}`)
	if status != http.StatusConflict || !strings.Contains(body, string(CodeBadPolicy)) {
		t.Fatalf("policyless auto-step: status %d body %q", status, body)
	}

	// A policy with the wrong dimensions is rejected.
	var info SessionInfo
	if status := c.do("POST", "/v1/sessions/"+sess.ID+"/policy", testPolicy(5, 2), &info); status != http.StatusUnprocessableEntity {
		t.Fatalf("wrong-width policy status %d, want 422", status)
	}

	if status := c.do("POST", "/v1/sessions/"+sess.ID+"/policy", testPolicy(2, 2), &info); status != http.StatusOK {
		t.Fatalf("policy attach status %d", status)
	}
	if !info.HasPolicy || info.Degraded {
		t.Fatalf("info after attach: %+v", info)
	}

	var step StepResponse
	if status := c.do("POST", "/v1/sessions/"+sess.ID+"/step", StepRequest{}, &step); status != http.StatusOK {
		t.Fatalf("auto-step status %d", status)
	}
	if step.Controller != "policy" {
		t.Fatalf("controller %q, want policy", step.Controller)
	}
	if step.Allocation == nil {
		t.Fatal("auto-step response has no allocation")
	}
}

// TestPolicyFallbackAndRecovery poisons an attached policy's weights in
// place (in-package, under the server lock) and checks the full
// self-healing cycle: degrade to HPA with the fallback counter bumped,
// shadow-probe the repaired policy, promote it back with the recovered
// counter bumped.
func TestPolicyFallbackAndRecovery(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client{t: t, srv: ts}
	sess := c.createSession(6)

	if status := c.do("POST", "/v1/sessions/"+sess.ID+"/policy", testPolicy(2, 2), nil); status != http.StatusOK {
		t.Fatalf("policy attach status %d", status)
	}
	poison := func(v float64) {
		s := srv.sessionByID(sess.ID)
		s.mu.Lock()
		defer s.mu.Unlock()
		s.policy.Actor.Layers[0].W.Data[0] = v
	}
	poison(math.NaN())

	var step StepResponse
	if status := c.do("POST", "/v1/sessions/"+sess.ID+"/step", StepRequest{}, &step); status != http.StatusOK {
		t.Fatalf("degraded auto-step status %d", status)
	}
	if step.Controller != "hpa" {
		t.Fatalf("controller %q after NaN poisoning, want hpa", step.Controller)
	}
	var info SessionInfo
	if status := c.do("GET", "/v1/sessions/"+sess.ID, nil, &info); status != http.StatusOK {
		t.Fatalf("info status %d", status)
	}
	if !info.Degraded || !info.HasPolicy {
		t.Fatalf("info after fallback: %+v", info)
	}
	var buf bytes.Buffer
	if err := srv.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("miras_controller_fallback_total{session=%q} 1", sess.ID)) {
		t.Fatalf("fallback counter missing:\n%s", buf.String())
	}

	// A still-broken policy never recovers.
	for k := 0; k < recoveryProbes+1; k++ {
		if status := c.do("POST", "/v1/sessions/"+sess.ID+"/step", StepRequest{}, &step); status != http.StatusOK {
			t.Fatalf("step status %d", status)
		}
		if step.Controller != "hpa" {
			t.Fatalf("broken policy regained control at step %d", k)
		}
	}

	// Heal the weight: recoveryProbes clean windows promote it back.
	poison(0.1)
	for k := 0; k < recoveryProbes; k++ {
		if status := c.do("POST", "/v1/sessions/"+sess.ID+"/step", StepRequest{}, &step); status != http.StatusOK {
			t.Fatalf("probe step status %d", status)
		}
		if step.Controller != "hpa" {
			t.Fatalf("probe window %d served by %q, want hpa until promotion", k, step.Controller)
		}
	}
	if status := c.do("POST", "/v1/sessions/"+sess.ID+"/step", StepRequest{}, &step); status != http.StatusOK {
		t.Fatalf("post-recovery step status %d", status)
	}
	if step.Controller != "policy" {
		t.Fatalf("controller %q after recovery, want policy", step.Controller)
	}
	if status := c.do("GET", "/v1/sessions/"+sess.ID, nil, &info); status != http.StatusOK {
		t.Fatalf("info status %d", status)
	}
	if info.Degraded {
		t.Fatal("session still degraded after recovery")
	}
	buf.Reset()
	if err := srv.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("miras_controller_recovered_total{session=%q} 1", sess.ID)) {
		t.Fatalf("recovered counter missing:\n%s", buf.String())
	}

	// DELETE removes the controller series.
	if status := c.do("DELETE", "/v1/sessions/"+sess.ID, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete status %d", status)
	}
	buf.Reset()
	if err := srv.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "miras_controller_fallback_total") {
		t.Fatal("controller metrics survived DELETE")
	}
}

// TestSnapshotRestoreRoundTrip exports a session that saw bursts, faults,
// steps, and a policy, restores it into a fresh session, and verifies both
// sessions are behaviourally identical from that point on.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	c := newClient(t)
	a := c.createSession(6)

	if status := c.do("POST", "/v1/sessions/"+a.ID+"/burst", BurstRequest{Counts: []int{20}}, nil); status != http.StatusOK {
		t.Fatalf("burst status %d", status)
	}
	plan := faults.Plan{Specs: []faults.Spec{
		{Kind: faults.Slowdown, Service: 0, StartSec: 0, DurationSec: 3600, Factor: 2},
	}}
	if status := c.do("POST", "/v1/sessions/"+a.ID+"/faults", plan, nil); status != http.StatusOK {
		t.Fatalf("faults status %d", status)
	}
	for k := 0; k < 5; k++ {
		if status := c.do("POST", "/v1/sessions/"+a.ID+"/step",
			StepRequest{Allocation: []int{4, 2}}, nil); status != http.StatusOK {
			t.Fatalf("step status %d", status)
		}
	}
	if status := c.do("POST", "/v1/sessions/"+a.ID+"/policy", testPolicy(2, 2), nil); status != http.StatusOK {
		t.Fatalf("policy status %d", status)
	}

	var snap SessionSnapshot
	if status := c.do("GET", "/v1/sessions/"+a.ID+"/snapshot", nil, &snap); status != http.StatusOK {
		t.Fatalf("snapshot status %d", status)
	}
	if len(snap.Ops) != 7 || snap.Policy == nil {
		t.Fatalf("snapshot ops=%d policy=%v", len(snap.Ops), snap.Policy != nil)
	}

	b := c.createSession(4) // different shape; restore overwrites it
	var restored SessionInfo
	if status := c.do("POST", "/v1/sessions/"+b.ID+"/restore", snap, &restored); status != http.StatusOK {
		t.Fatalf("restore status %d", status)
	}
	var orig SessionInfo
	if status := c.do("GET", "/v1/sessions/"+a.ID, nil, &orig); status != http.StatusOK {
		t.Fatalf("info status %d", status)
	}
	if restored.Windows != orig.Windows || restored.Budget != orig.Budget {
		t.Fatalf("restored %+v != original %+v", restored, orig)
	}
	if !reflect.DeepEqual(restored.State, orig.State) {
		t.Fatalf("restored state %v != original %v", restored.State, orig.State)
	}
	if !restored.HasPolicy {
		t.Fatal("restored session lost its policy")
	}

	// Both sessions evolve identically from here, including auto-steps.
	for k := 0; k < 3; k++ {
		var sa, sb StepResponse
		if status := c.do("POST", "/v1/sessions/"+a.ID+"/step", StepRequest{}, &sa); status != http.StatusOK {
			t.Fatalf("original step status %d", status)
		}
		if status := c.do("POST", "/v1/sessions/"+b.ID+"/step", StepRequest{}, &sb); status != http.StatusOK {
			t.Fatalf("restored step status %d", status)
		}
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("window %d diverged:\noriginal: %+v\nrestored: %+v", k, sa, sb)
		}
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	c := newClient(t)
	sess := c.createSession(6)
	cases := []string{
		`{"create":{"ensemble":"nope","budget":4}}`,
		`{"create":{"ensemble":"toy","budget":6},"ops":[{"kind":"zz"}]}`,
		`{"create":{"ensemble":"toy","budget":6},"ops":[{"kind":"step","alloc":[9,9]}]}`,
		`{"create":{"ensemble":"toy","budget":6},"ops":[{"kind":"faults"}]}`,
	}
	for i, body := range cases {
		status, resp := c.rawDo("POST", "/v1/sessions/"+sess.ID+"/restore", body)
		if status != http.StatusUnprocessableEntity || !strings.Contains(resp, string(CodeBadSnapshot)) {
			t.Fatalf("case %d: status %d body %q", i, status, resp)
		}
	}
	// Failed restores leave the session intact.
	var info SessionInfo
	if status := c.do("GET", "/v1/sessions/"+sess.ID, nil, &info); status != http.StatusOK || info.Budget != 6 {
		t.Fatalf("session damaged by failed restore: status %d %+v", status, info)
	}
}

func TestBodyLimit(t *testing.T) {
	srv := NewServer(WithMaxBodyBytes(64))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client{t: t, srv: ts}

	big := fmt.Sprintf(`{"ensemble":"toy","budget":4,"rates":[%s1]}`, strings.Repeat("0.5,", 64))
	status, body := c.rawDo("POST", "/v1/sessions", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", status)
	}
	want := `{"error":{"code":"body_too_large","message":"request body exceeds 64 bytes"}}` + "\n"
	if body != want {
		t.Fatalf("envelope %q, want %q", body, want)
	}
	// Small bodies still work.
	c.createSession(4)
}

func TestTimeoutMiddleware(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		w.WriteHeader(http.StatusOK)
	})
	h := boundMiddleware(20*time.Millisecond, slow)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("slow handler status %d, want 408", rec.Code)
	}
	want := `{"error":{"code":"request_timeout","message":"request exceeded the 20ms deadline"}}` + "\n"
	if rec.Body.String() != want {
		t.Fatalf("envelope %q, want %q", rec.Body.String(), want)
	}

	// Fast handlers pass through untouched: status, headers, body.
	fast := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Probe", "ok")
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, "hello")
	})
	rec = httptest.NewRecorder()
	boundMiddleware(time.Second, fast).ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusTeapot || rec.Body.String() != "hello" || rec.Header().Get("X-Probe") != "ok" {
		t.Fatalf("fast handler mangled: %d %q %q", rec.Code, rec.Body.String(), rec.Header().Get("X-Probe"))
	}
}
