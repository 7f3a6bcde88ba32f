package httpapi

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

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

// TestPolicyAttachAndAutoStep: an auto-step needs an attached policy, a
// policy must match the session's dimensions, and an attached one decides.
func TestPolicyAttachAndAutoStep(t *testing.T) {
	sess := newCore(t, NewServer(), 6)
	if _, err := sess.Step(t.Context(), nil, ""); codeOf(err) != CodeBadPolicy {
		t.Fatalf("policyless auto-step: %v, want %s", err, CodeBadPolicy)
	}
	if _, err := sess.AttachPolicy(testPolicy(5, 2)); codeOf(err) != CodeBadPolicy || sess.Info().HasPolicy {
		t.Fatalf("wrong-width policy: %v, has_policy %v", err, sess.Info().HasPolicy)
	}
	if info, err := sess.AttachPolicy(testPolicy(2, 2)); err != nil || !info.HasPolicy || info.Degraded {
		t.Fatalf("info after attach: %+v (%v)", info, err)
	}
	if body := step(t, sess, nil, ""); !strings.Contains(body, `"allocation":[`) || controllerOf(body) != "policy" {
		t.Fatalf("auto-step answered %s, want the policy's allocation", body)
	}
}

// poisonPolicy swaps sess's policy for a private clone whose first weight
// is v. The attached snapshot may be shared with other sessions, so it is
// never edited in place, and the clone is a new snapshot rather than a copy
// of it, which would carry its packed weights along.
func poisonPolicy(sess *session, v float64) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	p := sess.policy
	actor := p.Actor.Clone()
	actor.Layers[0].W.Data[0] = v
	sess.policy = &rl.PolicySnapshot{Actor: actor, NormCount: p.NormCount, NormMean: p.NormMean, NormM2: p.NormM2}
	sess.scratch = nil // built for the policy it replaces
}

// TestPolicyFallbackAndRecovery walks every controller transition of the
// session core: created → stepping, stepping → degraded (fallback counted),
// degraded → probing → degraded on a failed probe, probing → promoted after
// recoveryProbes clean probes (recovery counted) → stepping, and an attach
// that clears a degradation. A sibling attached with the same policy keeps
// serving from it throughout.
func TestPolicyFallbackAndRecovery(t *testing.T) {
	srv := NewServer()
	sess, sibling := newCore(t, srv, 6), newCore(t, srv, 6)
	shared := testPolicy(2, 2)
	for _, s := range []*session{sess, sibling} {
		if _, err := s.AttachPolicy(shared); err != nil {
			t.Fatal(err)
		}
	}
	nan := math.NaN()
	for i, tc := range []struct {
		weight     float64
		controller string
		degraded   bool
		probes     int
	}{
		{0.1, "policy", false, 0}, // created → stepping
		{nan, "hpa", true, 0},     // stepping → degraded
		{0.1, "hpa", true, 1},     // degraded → probing
		{nan, "hpa", true, 0},     // probing → degraded
		{0.1, "hpa", true, 1},     // degraded → probing
		{0.1, "hpa", true, 2},
		{0.1, "hpa", false, 0},    // probing → promoted
		{0.1, "policy", false, 0}, // promoted → stepping
	} {
		poisonPolicy(sess, tc.weight)
		if got := controllerOf(step(t, sess, nil, "")); got != tc.controller {
			t.Fatalf("window %d: controller %q, want %q", i, got, tc.controller)
		}
		if sess.Info().Degraded != tc.degraded || sess.healthyProbes != tc.probes {
			t.Fatalf("window %d: degraded %v after %d probes, want %v after %d",
				i, sess.Info().Degraded, sess.healthyProbes, tc.degraded, tc.probes)
		}
		if got := controllerOf(step(t, sibling, nil, "")); got != "policy" {
			t.Fatalf("window %d: sibling controller %q, want policy", i, got)
		}
	}
	if f, r := sess.fallbackTotal.Value(), sess.recoveredTotal.Value(); f != 1 || r != 1 {
		t.Fatalf("fallbacks %d recoveries %d, want 1 and 1", f, r)
	}
	poisonPolicy(sess, nan)
	step(t, sess, nil, "")
	if info, err := sess.AttachPolicy(testPolicy(2, 2)); err != nil || info.Degraded {
		t.Fatalf("attach over a degraded session: %v, degraded %v", err, info.Degraded)
	}
	if got := controllerOf(step(t, sess, nil, "")); got != "policy" {
		t.Fatalf("controller %q after a fresh attach, want policy", got)
	}
}

// TestSnapshotRestoreRoundTrip exports a session that saw bursts, faults,
// steps, and a policy, restores it over a session of another shape, and
// verifies both sessions are behaviourally identical from that point on.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	srv := NewServer()
	a := newCore(t, srv, 6)
	if _, err := a.Burst([]int{20}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ArmFaults(faults.Plan{Specs: []faults.Spec{
		{Kind: faults.Slowdown, Service: 0, StartSec: 0, DurationSec: 3600, Factor: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		step(t, a, []int{4, 2}, "")
	}
	if _, err := a.AttachPolicy(testPolicy(2, 2)); err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	if len(snap.Ops) != 7 || snap.Policy == nil {
		t.Fatalf("snapshot ops=%d policy=%v", len(snap.Ops), snap.Policy != nil)
	}

	b := newCore(t, srv, 4)
	step(t, b, []int{2, 2}, "")
	built, err := buildFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	restored, orig := b.Restore(built), a.Info()
	if b.prev.State != nil {
		t.Fatal("a restored session kept its previous window; it must be back at created")
	}
	restored.ID = orig.ID
	if !reflect.DeepEqual(restored, orig) {
		t.Fatalf("restored %+v != original %+v", restored, orig)
	}
	// Both sessions evolve identically from here, including auto-steps.
	for k := 0; k < 3; k++ {
		if sa, sb := step(t, a, nil, ""), step(t, b, nil, ""); sa != sb {
			t.Fatalf("window %d diverged:\noriginal: %s\nrestored: %s", k, sa, sb)
		}
	}
}

// TestRestoreRejectsBadSnapshots: a snapshot whose create request, op log
// or policy is refused builds nothing, so the session a restore targets
// keeps its state.
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	for i, raw := range []string{
		`{"create":{"ensemble":"nope","budget":4}}`,
		`{"create":{"ensemble":"toy","budget":6},"ops":[{"kind":"zz"}]}`,
		`{"create":{"ensemble":"toy","budget":6},"ops":[{"kind":"step","alloc":[9,9]}]}`,
		`{"create":{"ensemble":"toy","budget":6},"ops":[{"kind":"faults"}]}`,
		`{"create":{"ensemble":"toy","budget":6},"policy":{"norm_count":1}}`,
	} {
		var snap SessionSnapshot
		if err := json.Unmarshal([]byte(raw), &snap); err != nil {
			t.Fatal(err)
		}
		if built, err := buildFromSnapshot(snap); built != nil || codeOf(err) != CodeBadSnapshot {
			t.Fatalf("case %d: built %v, error %v; want %s", i, built != nil, err, CodeBadSnapshot)
		}
	}
}

func TestBodyLimit(t *testing.T) {
	srv := NewServer(WithSpillDir(t.TempDir()))
	srv.maxBodyBytes = 64 // the 64 MiB production cap, shrunk to test cheaply
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
	sess := c.createSession(4)
	// The policy attach reads its body whole; the cap answers the same.
	status, body = c.rawDo("POST", "/v1/sessions/"+sess.ID+"/policy", big)
	if status != http.StatusRequestEntityTooLarge || body != want {
		t.Fatalf("oversized policy body: status %d envelope %q, want 413 %q", status, body, want)
	}
	// So does the rehydrate request, which also reads its body whole.
	takeOver := fmt.Sprintf(`{"take_over":[%s"x"]}`, strings.Repeat(`"x",`, 16))
	status, body = c.rawDo("POST", "/v1/admin/rehydrate", takeOver)
	if status != http.StatusRequestEntityTooLarge || body != want {
		t.Fatalf("oversized rehydrate body: status %d envelope %q, want 413 %q", status, body, want)
	}
}

// TestTimeoutMiddleware pins the bound's two answers under a caller's
// deadline: a handler still running when the budget runs out gets the exact
// 504 deadline_exceeded envelope, and one done in time passes through its
// buffer untouched: status, headers, body.
func TestTimeoutMiddleware(t *testing.T) {
	release := make(chan struct{})
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set(DeadlineHeader, "20")
	rec := httptest.NewRecorder()
	running := serveBounded(rec, req, "", func(w http.ResponseWriter, r *http.Request, _ string) {
		<-release
		w.WriteHeader(http.StatusOK)
	})
	close(release)
	if running == nil {
		t.Fatal("slow handler reported it returned in time")
	}
	<-running
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow handler status %d, want 504", rec.Code)
	}
	want := `{"error":{"code":"deadline_exceeded","message":"request exceeded its 20ms deadline"}}` + "\n"
	if rec.Body.String() != want {
		t.Fatalf("envelope %q, want %q", rec.Body.String(), want)
	}

	req = httptest.NewRequest("GET", "/", nil)
	req.Header.Set(DeadlineHeader, "5000")
	rec = httptest.NewRecorder()
	running = serveBounded(rec, req, "", func(w http.ResponseWriter, r *http.Request, _ string) {
		w.Header().Set("X-Probe", "ok")
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, "hello")
	})
	if running != nil || rec.Code != http.StatusTeapot || rec.Body.String() != "hello" || rec.Header().Get("X-Probe") != "ok" {
		t.Fatalf("fast handler mangled: running %v, %d %q %q", running, rec.Code, rec.Body.String(), rec.Header().Get("X-Probe"))
	}
}
