package httpapi

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"miras/internal/faults"
	"miras/internal/shardring"
)

// rawDo issues a request with a literal body and returns status plus the
// exact response bytes.
func (c *client) rawDo(method, path, body string) (int, string) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.srv.URL+path, strings.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestErrorEnvelopeGolden pins the exact bytes of the error envelope for
// every stable code: the envelope is wire contract, so any drift (field
// order, casing, shape) must fail loudly.
func TestErrorEnvelopeGolden(t *testing.T) {
	limited := &client{t: t, srv: httptest.NewServer(NewServer(WithMaxSessions(0)).Handler())}
	defer limited.srv.Close()
	c := newClient(t)
	sess := c.createSession(4)

	// session_expired fixture: a server on a fake clock, one session with a
	// one-second TTL, clock marched past it.
	var fakeNow atomic.Int64
	fakeNow.Store(time.Unix(1000, 0).UnixNano())
	expSrv := NewServer(WithClock(func() time.Time { return time.Unix(0, fakeNow.Load()) }))
	expired := &client{t: t, srv: httptest.NewServer(expSrv.Handler())}
	defer expired.srv.Close()
	var expInfo SessionInfo
	if status := expired.do("POST", "/v1/sessions",
		CreateRequest{Ensemble: "toy", Budget: 4, TTLSeconds: 1}, &expInfo); status != http.StatusCreated {
		t.Fatalf("expiring session create status %d", status)
	}
	fakeNow.Add(int64(2 * time.Second))

	// wrong_shard fixture: a server that believes it is shard A of a
	// two-process topology, asked for an id the ring assigns to shard B.
	topoMembers := []string{"http://shard-a.example", "http://shard-b.example"}
	topoRing, err := shardring.New(topoMembers, 0)
	if err != nil {
		t.Fatal(err)
	}
	foreign := ""
	for i := 1; foreign == ""; i++ {
		if id := fmt.Sprintf("zz%d", i); topoRing.Owner(id) == topoMembers[1] {
			foreign = id
		}
	}
	topoClient := &client{t: t, srv: httptest.NewServer(
		NewServer(WithShardTopology(topoMembers[0], topoMembers)).Handler())}
	defer topoClient.srv.Close()

	envelope := func(code ErrorCode, msg string) string {
		return fmt.Sprintf(`{"error":{"code":%q,"message":%q}}`+"\n", code, msg)
	}
	cases := []struct {
		name       string
		client     *client
		method     string
		path       string
		body       string
		wantStatus int
		wantBody   string
	}{
		{
			name: "bad_request", method: "POST", path: "/v1/sessions", body: "{broken",
			wantStatus: 400,
			wantBody:   envelope(CodeBadRequest, "invalid character 'b' looking for beginning of object key string"),
		},
		{
			name: "unknown_ensemble", method: "POST", path: "/v1/sessions",
			body:       `{"ensemble":"nope","budget":4}`,
			wantStatus: 400,
			wantBody:   envelope(CodeUnknownEnsemble, `unknown ensemble "nope"`),
		},
		{
			name: "bad_session_config", method: "POST", path: "/v1/sessions",
			body:       `{"ensemble":"toy","budget":0}`,
			wantStatus: 400,
			wantBody:   envelope(CodeBadSessionConfig, "env: Budget must be positive, got 0"),
		},
		{
			name: "session_limit", client: limited, method: "POST", path: "/v1/sessions",
			body:       `{"ensemble":"toy","budget":4}`,
			wantStatus: 429,
			wantBody:   envelope(CodeSessionLimit, "session limit 0 reached"),
		},
		{
			name: "session_not_found", method: "GET", path: "/v1/sessions/zz",
			wantStatus: 404,
			wantBody:   envelope(CodeSessionNotFound, `no session "zz"`),
		},
		{
			name: "session_expired", client: expired, method: "GET",
			path:       "/v1/sessions/" + expInfo.ID,
			wantStatus: 410,
			wantBody:   envelope(CodeSessionExpired, fmt.Sprintf("session %q expired", expInfo.ID)),
		},
		{
			name: "wrong_shard", client: topoClient, method: "GET",
			path:       "/v1/sessions/" + foreign,
			wantStatus: 421,
			wantBody: envelope(CodeWrongShard, fmt.Sprintf(
				"session %q is owned by shard %s", foreign, topoMembers[1])),
		},
		{
			name: "bad_allocation", method: "POST", path: "/v1/sessions/" + sess.ID + "/step",
			body:       `{"allocation":[1]}`,
			wantStatus: 422,
			wantBody:   envelope(CodeBadAllocation, "env: action has 1 entries for 2 microservices"),
		},
		{
			name: "bad_burst", method: "POST", path: "/v1/sessions/" + sess.ID + "/burst",
			body:       `{"counts":[1,2,3]}`,
			wantStatus: 422,
			wantBody:   envelope(CodeBadBurst, "workload: burst has 3 counts for 1 workflow types"),
		},
		{
			name: "bad_fault_plan", method: "POST", path: "/v1/sessions/" + sess.ID + "/faults",
			body:       `{"specs":[{"kind":"meteor","service":0}]}`,
			wantStatus: 422,
			wantBody:   envelope(CodeBadFaultPlan, `spec 0: faults: unknown kind "meteor"`),
		},
		{
			name: "bad_policy", method: "POST", path: "/v1/sessions/" + sess.ID + "/step",
			body:       `{}`,
			wantStatus: 409,
			wantBody: envelope(CodeBadPolicy, fmt.Sprintf(
				"session %s has no policy attached: supply an allocation or attach one via POST /v1/sessions/%s/policy",
				sess.ID, sess.ID)),
		},
		{
			name: "bad_snapshot", method: "POST", path: "/v1/sessions/" + sess.ID + "/restore",
			body:       `{"create":{"ensemble":"nope","budget":4}}`,
			wantStatus: 422,
			wantBody:   envelope(CodeBadSnapshot, `snapshot create request: unknown ensemble "nope"`),
		},
	}
	for _, tc := range cases {
		cl := tc.client
		if cl == nil {
			cl = c
		}
		status, body := cl.rawDo(tc.method, tc.path, tc.body)
		if status != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.wantStatus)
		}
		if body != tc.wantBody {
			t.Errorf("%s: body %q, want %q", tc.name, body, tc.wantBody)
		}
	}
}

func TestFaultsEndpointLifecycle(t *testing.T) {
	c := newClient(t)
	sess := c.createSession(6)

	plan := faults.Plan{Specs: []faults.Spec{
		{Kind: faults.Slowdown, Service: 0, StartSec: 0, DurationSec: 3600, Factor: 4},
		{Kind: faults.Crash, Service: 1, StartSec: 0, DurationSec: 3600, MTTFSec: 15, MTTRSec: 5},
	}}
	var info SessionInfo
	if status := c.do("POST", "/v1/sessions/"+sess.ID+"/faults", plan, &info); status != http.StatusOK {
		t.Fatalf("faults status %d", status)
	}
	if info.FaultSpecs != 2 {
		t.Fatalf("FaultSpecs=%d, want 2", info.FaultSpecs)
	}

	// Step enough windows for both faults to activate and crash consumers.
	for k := 0; k < 20; k++ {
		var step StepResponse
		if status := c.do("POST", "/v1/sessions/"+sess.ID+"/step",
			StepRequest{Allocation: []int{3, 3}}, &step); status != http.StatusOK {
			t.Fatalf("step %d status %d", k, status)
		}
	}
	if status := c.do("GET", "/v1/sessions/"+sess.ID, nil, &info); status != http.StatusOK {
		t.Fatalf("info status %d", status)
	}
	if info.Crashed == 0 {
		t.Fatal("crash process killed nothing over 20 windows at MTTF=15s")
	}
	if len(info.ActiveFaults) == 0 {
		t.Fatal("no active faults reported mid-episode")
	}
	if len(info.Consumers) != 2 {
		t.Fatalf("Consumers=%v", info.Consumers)
	}
}

func TestFaultMetricsPerSession(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client{t: t, srv: ts}
	sess := c.createSession(6)

	plan := faults.Plan{Specs: []faults.Spec{
		{Kind: faults.Crash, Service: 0, StartSec: 0, MTTFSec: 10},
	}}
	if status := c.do("POST", "/v1/sessions/"+sess.ID+"/faults", plan, nil); status != http.StatusOK {
		t.Fatalf("faults status %d", status)
	}
	for k := 0; k < 10; k++ {
		if status := c.do("POST", "/v1/sessions/"+sess.ID+"/step",
			StepRequest{Allocation: []int{3, 3}}, nil); status != http.StatusOK {
			t.Fatalf("step status %d", status)
		}
	}
	var buf bytes.Buffer
	if err := srv.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	faultLine := fmt.Sprintf(`miras_faults_total{session=%q}`, sess.ID)
	crashLine := fmt.Sprintf(`miras_consumers_crashed{session=%q}`, sess.ID)
	if !strings.Contains(text, faultLine) || !strings.Contains(text, crashLine) {
		t.Fatalf("fault metrics missing from exposition:\n%s", text)
	}

	// DELETE removes the per-session series.
	if status := c.do("DELETE", "/v1/sessions/"+sess.ID, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete status %d", status)
	}
	buf.Reset()
	if err := srv.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), faultLine) || strings.Contains(buf.String(), crashLine) {
		t.Fatal("per-session fault metrics survived DELETE")
	}
}

func TestCreateFailureAwareWithPlan(t *testing.T) {
	c := newClient(t)
	var info SessionInfo
	status := c.do("POST", "/v1/sessions", CreateRequest{
		Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: 7,
		FailureAware: true,
		Faults: &faults.Plan{Specs: []faults.Spec{
			{Kind: faults.Slowdown, Service: 1, StartSec: 0, DurationSec: 600, Factor: 2},
		}},
	}, &info)
	if status != http.StatusCreated {
		t.Fatalf("create status %d", status)
	}
	if !info.FailureAware || info.StateDim != 4 || info.ActionDim != 2 {
		t.Fatalf("failure-aware dims wrong: %+v", info)
	}
	if len(info.State) != 4 {
		t.Fatalf("state width %d, want 4", len(info.State))
	}
	if info.FaultSpecs != 1 {
		t.Fatalf("FaultSpecs=%d, want 1", info.FaultSpecs)
	}
	var step StepResponse
	if status := c.do("POST", "/v1/sessions/"+info.ID+"/step",
		StepRequest{Allocation: []int{3, 3}}, &step); status != http.StatusOK {
		t.Fatalf("step status %d", status)
	}
	if len(step.State) != 4 {
		t.Fatalf("step state width %d, want 4", len(step.State))
	}
	// The armed 2× slowdown on service 1 must show in the capacity half.
	if got := step.State[3]; got != 1.5 {
		t.Fatalf("effective capacity[1]=%g under 2× slowdown of 3 consumers, want 1.5", got)
	}

	// An invalid plan at creation is rejected with the fault-plan code and
	// leaks no session.
	status, body := c.rawDo("POST", "/v1/sessions",
		`{"ensemble":"toy","budget":6,"faults":{"specs":[{"kind":"slowdown","service":9,"factor":2,"duration_sec":5}]}}`)
	if status != http.StatusBadRequest {
		t.Fatalf("bad plan create status %d", status)
	}
	if !strings.Contains(body, string(CodeBadFaultPlan)) {
		t.Fatalf("bad plan create body %q, want code %q", body, CodeBadFaultPlan)
	}
}

// TestConcurrentSessionsWithFaults hammers create/faults/policy/step/info/
// delete from parallel goroutines, half of the sessions auto-stepping (the
// serving decide path under an active fault plan); under -race this
// validates that the fault path shares the same locking discipline as the
// rest of the session API.
func TestConcurrentSessionsWithFaults(t *testing.T) {
	c := newClient(t)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var info SessionInfo
			if status := c.do("POST", "/v1/sessions", CreateRequest{
				Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: int64(w + 1),
				FailureAware: w%2 == 0,
			}, &info); status != http.StatusCreated {
				errs <- fmt.Errorf("worker %d: create status %d", w, status)
				return
			}
			plan := faults.Plan{Specs: []faults.Spec{
				{Kind: faults.Crash, Service: w % 2, StartSec: 0, MTTFSec: 20, MTTRSec: 5},
				{Kind: faults.Slowdown, Service: 0, StartSec: 10, DurationSec: 60, Factor: 2},
			}}
			if status := c.do("POST", "/v1/sessions/"+info.ID+"/faults", plan, nil); status != http.StatusOK {
				errs <- fmt.Errorf("worker %d: faults status %d", w, status)
				return
			}
			// Workers 0,1,4,5 (two failure-aware, two plain) hand the
			// allocation to the server: a policy sized to the session's own
			// state_dim, every step an auto-step under the active plan.
			step := StepRequest{Allocation: []int{3, 3}}
			auto := w%4 < 2
			if auto {
				step = StepRequest{}
				if status := c.do("POST", "/v1/sessions/"+info.ID+"/policy",
					testPolicy(info.StateDim, info.ActionDim), nil); status != http.StatusOK {
					errs <- fmt.Errorf("worker %d: policy status %d", w, status)
					return
				}
			}
			for k := 0; k < 5; k++ {
				var out StepResponse
				if status := c.do("POST", "/v1/sessions/"+info.ID+"/step", step, &out); status != http.StatusOK {
					errs <- fmt.Errorf("worker %d: step status %d", w, status)
					return
				}
				if auto && out.Controller != "policy" && out.Controller != "hpa" {
					errs <- fmt.Errorf("worker %d: auto-step decided by %q, want policy or hpa", w, out.Controller)
					return
				}
			}
			if status := c.do("GET", "/v1/sessions/"+info.ID, nil, &info); status != http.StatusOK {
				errs <- fmt.Errorf("worker %d: info status %d", w, status)
				return
			}
			if status := c.do("DELETE", "/v1/sessions/"+info.ID, nil, nil); status != http.StatusNoContent {
				errs <- fmt.Errorf("worker %d: delete status %d", w, status)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
