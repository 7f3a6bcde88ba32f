package httpapi

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"miras/internal/obs"
)

// obsClient builds a server with the full observability surface attached:
// a wall-clock tracer over a span ring, carrying (optionally) an anomaly
// profiler.
func obsClient(t *testing.T, prof *obs.ProfileCapturer) (*client, *Server, *obs.SpanRing) {
	t.Helper()
	ring := obs.NewSpanRing(1 << 10)
	tracer := obs.NewTracer(obs.TracerConfig{Ring: ring, Profiler: prof})
	srv := NewServer(WithTracer(tracer))
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return &client{t: t, srv: hs}, srv, ring
}

// TestRequestSpansAndTraceparent checks the request middleware: an incoming
// W3C traceparent is joined (same trace id in the response header), the root
// span lands in the ring with its remote parent, and session work appears
// as child spans tagged with the session id.
func TestRequestSpansAndTraceparent(t *testing.T) {
	c, _, ring := obsClient(t, nil)
	sess := c.createSession(6)

	const inTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest("POST", c.srv.URL+"/v1/sessions/"+sess.ID+"/step",
		strings.NewReader(`{"allocation":[4,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+inTrace+"-00000000000000aa-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step status %d", resp.StatusCode)
	}
	tp := resp.Header.Get("traceparent")
	if !strings.HasPrefix(tp, "00-"+inTrace+"-") {
		t.Fatalf("response traceparent %q does not continue trace %s", tp, inTrace)
	}

	var root, step *obs.SpanRecord
	for _, rec := range ring.Records() {
		rec := rec
		switch {
		case rec.Name == "http.step" && rec.Trace == inTrace:
			root = &rec
		case rec.Name == "session.step" && rec.Trace == inTrace:
			step = &rec
		}
	}
	if root == nil || step == nil {
		t.Fatalf("traced step spans missing from ring: root=%v step=%v", root, step)
	}
	if root.Parent != "00000000000000aa" {
		t.Fatalf("root parent %q, want remote parent 00000000000000aa", root.Parent)
	}
	if step.Parent != root.ID {
		t.Fatalf("session.step parent %q, want root id %q", step.Parent, root.ID)
	}
	if root.Attrs["endpoint"] != "step" || root.Attrs["status"] != int64(http.StatusOK) {
		t.Fatalf("root attrs %v", root.Attrs)
	}
	if step.Attrs["session"] != sess.ID {
		t.Fatalf("session.step attrs %v lack session id", step.Attrs)
	}
	if root.WallDur == 0 {
		t.Fatal("wall-mode request span has no wall duration")
	}
}

// TestDebugEndpoints checks the server's mounted trace route serves a
// well-formed payload reflecting live traffic. The time-series routes are
// obs.MountDebug's (TestMountDebugEndToEnd).
func TestDebugEndpoints(t *testing.T) {
	c, _, _ := obsClient(t, nil)
	sess := c.createSession(6)
	if status := c.do("POST", "/v1/sessions/"+sess.ID+"/step",
		StepRequest{Allocation: []int{4, 2}}, nil); status != http.StatusOK {
		t.Fatalf("step status %d", status)
	}

	var spans []obs.SpanRecord
	if status := c.do("GET", "/v1/debug/traces", nil, &spans); status != http.StatusOK {
		t.Fatalf("traces status %d", status)
	}
	found := false
	for _, rec := range spans {
		if rec.Name == "session.step" && rec.Attrs["session"] == sess.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("no session.step span in /v1/debug/traces (%d spans)", len(spans))
	}
}

// TestDeleteCleansUpObservability is the per-session cleanup audit: after
// DELETE, registry cardinality, span-ring session spans, and (after the
// next sample) time-series cardinality all return to their pre-session
// baselines.
func TestDeleteCleansUpObservability(t *testing.T) {
	c, srv, ring := obsClient(t, nil)
	ts := obs.NewTimeSeriesRing(32)

	// Baseline after the handler (and its per-endpoint series) exist but
	// before any session.
	ts.Sample(srv.Registry(), 0)
	regBase := srv.Registry().SeriesCount()
	tsBase := ts.SeriesCount()

	sess := c.createSession(6)
	for k := 0; k < 3; k++ {
		if status := c.do("POST", "/v1/sessions/"+sess.ID+"/step",
			StepRequest{Allocation: []int{4, 2}}, nil); status != http.StatusOK {
			t.Fatalf("step status %d", status)
		}
	}
	ts.Sample(srv.Registry(), 1)
	if srv.Registry().SeriesCount() <= regBase {
		t.Fatal("session added no registry series")
	}
	if ts.SeriesCount() <= tsBase {
		t.Fatal("session added no time-series")
	}
	sessionSpans := 0
	for _, rec := range ring.Records() {
		if rec.Attrs["session"] == sess.ID {
			sessionSpans++
		}
	}
	if sessionSpans == 0 {
		t.Fatal("no session-tagged spans before delete")
	}

	if status := c.do("DELETE", "/v1/sessions/"+sess.ID, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete status %d", status)
	}
	ts.Sample(srv.Registry(), 2)

	if got := srv.Registry().SeriesCount(); got != regBase {
		t.Fatalf("registry series %d after delete, want baseline %d", got, regBase)
	}
	if got := ts.SeriesCount(); got != tsBase {
		t.Fatalf("time-series %d after delete, want baseline %d", got, tsBase)
	}
	for _, rec := range ring.Records() {
		if rec.Attrs["session"] == sess.ID {
			t.Fatalf("span %s for deleted session survived in ring", rec.Name)
		}
	}
}

// TestFallbackTriggersProfile forces a serving-side policy failure and
// verifies the degradation to HPA leaves an hpa_fallback pprof capture on
// disk — the serving twin of the training-side divergence_rollback test.
func TestFallbackTriggersProfile(t *testing.T) {
	dir := t.TempDir()
	prof, err := obs.NewProfileCapturer(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, srv, _ := obsClient(t, prof)
	sess := c.createSession(6)
	sibling := c.createSession(6)
	for _, id := range []string{sess.ID, sibling.ID} {
		if status := c.do("POST", "/v1/sessions/"+id+"/policy", testPolicy(2, 2), nil); status != http.StatusOK {
			t.Fatalf("policy attach status %d", status)
		}
	}
	poisonPolicy(srv.sessionByID(sess.ID), math.NaN())

	var step StepResponse
	if status := c.do("POST", "/v1/sessions/"+sess.ID+"/step", StepRequest{}, &step); status != http.StatusOK {
		t.Fatalf("degraded step status %d", status)
	}
	if step.Controller != "hpa" {
		t.Fatalf("controller %q, want hpa", step.Controller)
	}
	if status := c.do("POST", "/v1/sessions/"+sibling.ID+"/step", StepRequest{}, &step); status != http.StatusOK {
		t.Fatalf("sibling step status %d", status)
	}
	if step.Controller != "policy" {
		t.Fatalf("sibling controller %q after its neighbour's poisoning, want policy", step.Controller)
	}
	if prof.Captures() != 1 {
		t.Fatalf("captures=%d, want 1", prof.Captures())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ent := range entries {
		if strings.Contains(ent.Name(), "hpa_fallback") && strings.HasSuffix(ent.Name(), ".pprof") {
			info, err := ent.Info()
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() == 0 {
				t.Fatalf("profile %s is empty", ent.Name())
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no hpa_fallback profile on disk: %v", entries)
	}
}

// TestUntracedServerOmitsTraceHeaders pins the disabled path: no tracer
// means no traceparent response header and no debug trace route.
func TestUntracedServerOmitsTraceHeaders(t *testing.T) {
	c := newClient(t)
	sess := c.createSession(6)
	resp, err := http.Post(c.srv.URL+"/v1/sessions/"+sess.ID+"/step",
		"application/json", strings.NewReader(`{"allocation":[4,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("traceparent"); got != "" {
		t.Fatalf("untraced server set traceparent %q", got)
	}
	status, _ := c.rawDo("GET", "/v1/debug/traces", "")
	if status != http.StatusNotFound {
		t.Fatalf("debug traces on untraced server: status %d, want 404", status)
	}
}
