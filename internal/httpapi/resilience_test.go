package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"miras/internal/obs"
	"miras/internal/shardring"
)

// doWithHeaders is client.do plus arbitrary request headers, returning the
// raw response for envelope inspection.
func (c *client) doWithHeaders(method, path string, headers map[string]string) *http.Response {
	c.t.Helper()
	req, err := http.NewRequest(method, c.srv.URL+path, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp
}

func envelopeOf(t *testing.T, resp *http.Response) ErrorEnvelope {
	t.Helper()
	defer resp.Body.Close()
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	return env
}

// TestDeadlineHeaderValidation pins the edge of the propagated-deadline
// contract: a generous budget passes through (however large), a malformed
// one is a 400, and an already-spent one is refused 504 before any work
// runs.
func TestDeadlineHeaderValidation(t *testing.T) {
	c := newClient(t)

	// The huge values would overflow time.Duration into a negative budget
	// if multiplied out unclamped; they are simply very generous.
	for _, raw := range []string{"5000", "9223372036855", "9223372036854775807"} {
		resp := c.doWithHeaders("GET", "/v1/ensembles", map[string]string{DeadlineHeader: raw})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("generous deadline %q status %d, want 200", raw, resp.StatusCode)
		}
	}

	resp := c.doWithHeaders("GET", "/v1/ensembles", map[string]string{DeadlineHeader: "soonish"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline status %d, want 400", resp.StatusCode)
	}
	if env := envelopeOf(t, resp); env.Error.Code != CodeBadRequest ||
		!strings.Contains(env.Error.Message, DeadlineHeader) {
		t.Fatalf("malformed deadline envelope %+v", env)
	}

	for _, raw := range []string{"0", "-25"} {
		resp = c.doWithHeaders("GET", "/v1/ensembles", map[string]string{DeadlineHeader: raw})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("deadline %q status %d, want 504", raw, resp.StatusCode)
		}
		env := envelopeOf(t, resp)
		if env.Error.Code != CodeDeadlineExceeded {
			t.Fatalf("deadline %q code %q, want %q", raw, env.Error.Code, CodeDeadlineExceeded)
		}
		if env.Error.Message != "request deadline already exhausted" {
			t.Fatalf("deadline %q message %q", raw, env.Error.Message)
		}
	}
}

// TestDeadlineMiddlewareExpiry exercises the bound against a handler that
// outlives its budget: the client gets a clean 504 deadline_exceeded
// envelope while the abandoned handler's late writes go to the buffer, not
// the wire, and the returned channel closes when that handler returns.
func TestDeadlineMiddlewareExpiry(t *testing.T) {
	released := make(chan struct{})
	req := httptest.NewRequest("GET", "/v1/sessions/s1", nil)
	req.Header.Set(DeadlineHeader, "30")
	rec := httptest.NewRecorder()
	running := serveBounded(rec, req, "s1", func(w http.ResponseWriter, r *http.Request, _ string) {
		<-r.Context().Done()
		// Outlive the deadline by a margin so the bound's select
		// deterministically sees the expiry, not the handler's return.
		time.Sleep(150 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("too late"))
		close(released)
	})
	if env := envelopeOf(t, rec.Result()); rec.Code != http.StatusGatewayTimeout ||
		env.Error.Code != CodeDeadlineExceeded || !strings.Contains(env.Error.Message, "30ms") {
		t.Fatalf("status %d envelope %+v, want 504 %s naming the 30ms budget", rec.Code, env.Error, CodeDeadlineExceeded)
	}
	if running == nil {
		t.Fatal("an expired request reported its handler returned")
	}
	<-running
	<-released
}

// TestUnboundedRequestRunsInline: a request without X-Miras-Deadline-Ms
// has no bound. Its handler runs on the caller's goroutine, straight onto
// the caller's ResponseWriter, under a context without a deadline.
func TestUnboundedRequestRunsInline(t *testing.T) {
	rec := httptest.NewRecorder()
	running := serveBounded(rec, httptest.NewRequest("GET", "/v1/sessions/s1", nil), "s1",
		func(w http.ResponseWriter, r *http.Request, _ string) {
			if w != http.ResponseWriter(rec) {
				t.Error("unbounded request got a buffered ResponseWriter")
			}
			if _, ok := r.Context().Deadline(); ok {
				t.Error("unbounded request got a context deadline")
			}
			stack := make([]byte, 16<<10)
			if stack = stack[:runtime.Stack(stack, false)]; !strings.Contains(string(stack), "TestUnboundedRequestRunsInline") {
				t.Errorf("unbounded request left the caller's goroutine:\n%s", stack)
			}
		})
	if running != nil {
		t.Error("an unbounded request reported a handler still running")
	}
}

// TestBoundRefusalsAreCounted: a request the deadline bound refuses or
// cuts short is counted under its endpoint — request and error counters,
// latency histogram, span — with the status its client received: a
// malformed header (400), a spent one (504), and one that expires while its
// handler waits on the session lock (504, though the abandoned handler
// then writes 200 into its buffer).
func TestBoundRefusalsAreCounted(t *testing.T) {
	ring := obs.NewSpanRing(64)
	srv := NewServer(WithTracer(obs.NewTracer(obs.TracerConfig{Ring: ring})))
	h := srv.Handler()
	id := doJSON(t, h, "POST", "/v1/sessions", `{"ensemble":"toy","budget":6,"window_sec":10}`, http.StatusCreated)["id"].(string)
	info := func(deadline string, want int) {
		t.Helper()
		req := httptest.NewRequest("GET", "/v1/sessions/"+id, nil)
		if deadline != "" {
			req.Header.Set(DeadlineHeader, deadline)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Fatalf("info with deadline %q: status %d, want %d", deadline, rec.Code, want)
		}
	}
	info("abc", http.StatusBadRequest)
	info("0", http.StatusGatewayTimeout)
	info("", http.StatusOK)
	srv.sessionByID(id).mu.Lock()
	info("20", http.StatusGatewayTimeout)
	srv.sessionByID(id).mu.Unlock()

	body := scrape(t, srv)
	for _, want := range []string{
		`miras_http_requests_total{endpoint="info"} 4`,
		`miras_http_errors_total{endpoint="info"} 3`,
		`miras_http_request_duration_seconds_count{endpoint="info"} 4`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("metrics lack %q", want)
		}
	}
	// The abandoned handler's span ends when that handler returns.
	var statuses []int64
	for end := time.Now().Add(5 * time.Second); len(statuses) < 4 && time.Now().Before(end); time.Sleep(time.Millisecond) {
		statuses = statuses[:0]
		for _, rec := range ring.Records() {
			if rec.Name == "http.info" {
				statuses = append(statuses, rec.Attrs["status"].(int64))
			}
		}
	}
	if slices.Sort(statuses); !slices.Equal(statuses, []int64{200, 400, 504, 504}) {
		t.Errorf("http.info span statuses %v, want [200 400 504 504]", statuses)
	}
}

// TestQueuedStepAbandonedWhenClientLeaves: a step without a deadline
// header has no bound of its own, but a client that gives up closes its
// connection, which cancels the request's context. A step still queued on
// the session lock then is dropped before it runs: 504 deadline_exceeded,
// the window does not advance and the op log does not grow.
func TestQueuedStepAbandonedWhenClientLeaves(t *testing.T) {
	srv := NewServer()
	h := srv.Handler()
	id := doJSON(t, h, "POST", "/v1/sessions", `{"ensemble":"toy","budget":6,"window_sec":10}`, http.StatusCreated)["id"].(string)
	sess := srv.sessionByID(id)
	sess.mu.Lock()
	windows, ops := sess.env.Window(), len(sess.env.Ops())
	touched := sess.lastAccess.Load()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequestWithContext(ctx, "POST", "/v1/sessions/"+id+"/step", strings.NewReader(`{"allocation":[4,2]}`))
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() { h.ServeHTTP(rec, req); close(done) }()
	// lookup touches the session just before the step takes its lock.
	for deadline := time.Now().Add(5 * time.Second); sess.lastAccess.Load() == touched; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the step never reached the session lock")
		}
	}
	cancel()
	sess.mu.Unlock()
	<-done

	if env := envelopeOf(t, rec.Result()); rec.Code != http.StatusGatewayTimeout || env.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("abandoned step: status %d envelope %+v, want 504 %s", rec.Code, env.Error, CodeDeadlineExceeded)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if w, n := sess.env.Window(), len(sess.env.Ops()); w != windows || n != ops {
		t.Fatalf("abandoned step moved the session: window %d → %d, op log %d → %d", windows, w, ops, n)
	}
}

// fleetPair builds two in-process shard "processes" sharing a spill
// directory under a two-member topology, returning the servers, their
// clients, the member URLs, and an id generator scoped to one owner.
func fleetPair(t *testing.T) (servers [2]*Server, clients [2]*client, members []string, idOwnedBy func(owner string) string) {
	t.Helper()
	spill := t.TempDir()
	members = []string{"http://shard-a.internal", "http://shard-b.internal"}
	for i := range servers {
		srv := NewServer(WithShardTopology(members[i], members), WithSpillDir(spill))
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		servers[i] = srv
		clients[i] = &client{t: t, srv: ts}
	}
	ring, err := shardring.New(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	idOwnedBy = func(owner string) string {
		for {
			seq++
			id := fmt.Sprintf("f%d", seq)
			if ring.Owner(id) == owner {
				return id
			}
		}
	}
	return servers, clients, members, idOwnedBy
}

// TestRehydrateTakeOver is the shard-side half of router failover: a
// fallback process adopts a dead peer's spilled sessions only when the
// rehydrate request names that peer in take_over, and the adopted ids then
// serve from the fallback.
func TestRehydrateTakeOver(t *testing.T) {
	servers, clients, members, _ := fleetPair(t)
	a, b := clients[0], clients[1]

	// Two sessions living on B (B mints ids it homes), spill-synced as a
	// crashed process would have left them.
	idOne, idTwo := b.createSession(6).ID, b.createSession(6).ID
	for _, id := range []string{idOne, idTwo} {
		if status := b.do("POST", "/v1/sessions/"+id+"/step",
			StepRequest{Allocation: []int{3, 3}}, nil); status != http.StatusOK {
			t.Fatalf("step %s status %d", id, status)
		}
	}
	if n, err := servers[1].SpillAll(); err != nil || n != 2 {
		t.Fatalf("SpillAll = (%d, %v), want 2 sessions", n, err)
	}

	// Without take_over, A leaves B's spills for their owner.
	var rr RehydrateResponse
	if status := a.do("POST", "/v1/admin/rehydrate", nil, &rr); status != http.StatusOK {
		t.Fatalf("plain rehydrate status %d", status)
	}
	if len(rr.Rehydrated) != 0 {
		t.Fatalf("plain rehydrate adopted %v, want nothing", rr.Rehydrated)
	}

	// A malformed take_over is refused.
	if status := a.do("POST", "/v1/admin/rehydrate",
		map[string]any{"take_over": 3}, nil); status != http.StatusBadRequest {
		t.Fatalf("malformed rehydrate body status %d, want 400", status)
	}

	// Naming B in take_over adopts its sessions.
	if status := a.do("POST", "/v1/admin/rehydrate",
		RehydrateRequest{TakeOver: []string{members[1]}}, &rr); status != http.StatusOK {
		t.Fatalf("take_over rehydrate status %d", status)
	}
	if len(rr.Rehydrated) != 2 || rr.Rehydrated[0] >= rr.Rehydrated[1] {
		t.Fatalf("take_over rehydrated %v, want both of B's ids sorted", rr.Rehydrated)
	}

	// The adopted sessions serve from A — including writes — and their
	// replayed history survived (one window stepped before the spill).
	for _, id := range []string{idOne, idTwo} {
		var info SessionInfo
		if status := a.do("GET", "/v1/sessions/"+id, nil, &info); status != http.StatusOK {
			t.Fatalf("adopted %s info status %d", id, status)
		}
		if info.Windows != 1 {
			t.Fatalf("adopted %s windows %d, want the pre-crash history replayed", id, info.Windows)
		}
		if status := a.do("POST", "/v1/sessions/"+id+"/step",
			StepRequest{Allocation: []int{3, 3}}, nil); status != http.StatusOK {
			t.Fatalf("adopted %s step status %d", id, status)
		}
	}
}

// TestFailoverHeaderBypassesWrongShard: while a peer is down, requests
// re-routed with X-Miras-Failover-From naming that peer must not bounce
// 421 — a missing id is an honest 404 — and a re-routed create is accepted
// under an id the fallback homes itself.
func TestFailoverHeaderBypassesWrongShard(t *testing.T) {
	_, clients, members, idOwnedBy := fleetPair(t)
	a := clients[0]
	foreign := idOwnedBy(members[1])

	resp := a.doWithHeaders("GET", "/v1/sessions/"+foreign, nil)
	if env := envelopeOf(t, resp); resp.StatusCode != http.StatusMisdirectedRequest ||
		env.Error.Code != CodeWrongShard {
		t.Fatalf("foreign id without header: status %d code %q, want 421 wrong_shard",
			resp.StatusCode, env.Error.Code)
	}

	resp = a.doWithHeaders("GET", "/v1/sessions/"+foreign,
		map[string]string{FailoverHeader: members[1]})
	if env := envelopeOf(t, resp); resp.StatusCode != http.StatusNotFound ||
		env.Error.Code != CodeSessionNotFound {
		t.Fatalf("foreign id with failover header: status %d code %q, want 404",
			resp.StatusCode, env.Error.Code)
	}

	// A header naming a member that is NOT the id's owner does not bypass.
	resp = a.doWithHeaders("GET", "/v1/sessions/"+foreign,
		map[string]string{FailoverHeader: members[0]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("wrong failover header: status %d, want 421", resp.StatusCode)
	}

	req, err := http.NewRequest("POST", a.srv.URL+"/v1/sessions",
		strings.NewReader(`{"ensemble":"toy","budget":6,"window_sec":10}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(FailoverHeader, members[1])
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || err != nil {
		t.Fatalf("re-routed create: status %d (%v), want 201", resp.StatusCode, err)
	}
	if status := a.do("GET", "/v1/sessions/"+info.ID, nil, nil); status != http.StatusOK {
		t.Fatalf("re-routed create minted %q, which A serves only under the header (status %d)", info.ID, status)
	}
}

// TestDeleteRemovesSpill: deleting a session destroys its spill store, so
// a later rehydrate cannot resurrect state the client explicitly ended.
func TestDeleteRemovesSpill(t *testing.T) {
	spill := t.TempDir()
	srv := NewServer(WithSpillDir(spill))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := &client{t: t, srv: ts}

	sess := c.createSession(6)
	if status := c.do("POST", "/v1/sessions/"+sess.ID+"/step",
		StepRequest{Allocation: []int{3, 3}}, nil); status != http.StatusOK {
		t.Fatalf("step status %d", status)
	}
	if n, err := srv.SpillAll(); err != nil || n != 1 {
		t.Fatalf("SpillAll = (%d, %v)", n, err)
	}
	if _, err := os.Stat(filepath.Join(spill, sess.ID)); err != nil {
		t.Fatalf("spill store missing after SpillAll: %v", err)
	}

	if status := c.do("DELETE", "/v1/sessions/"+sess.ID, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete status %d", status)
	}
	if _, err := os.Stat(filepath.Join(spill, sess.ID)); !os.IsNotExist(err) {
		t.Fatalf("spill store survived the delete (stat err %v)", err)
	}

	var rr RehydrateResponse
	if status := c.do("POST", "/v1/admin/rehydrate", nil, &rr); status != http.StatusOK {
		t.Fatalf("rehydrate status %d", status)
	}
	if len(rr.Rehydrated) != 0 {
		t.Fatalf("deleted session resurrected: %v", rr.Rehydrated)
	}
}

// TestDurableSessions: under WithDurableSessions a created session is on
// disk before its 201 and a rehydrated one keeps its store; a create whose
// spill fails answers 500 and leaves no session behind.
func TestDurableSessions(t *testing.T) {
	durable := func(dir string) (*Server, *client) {
		srv := NewServer(WithSpillDir(dir), WithDurableSessions())
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, &client{t: t, srv: ts}
	}
	spill := t.TempDir()
	_, a := durable(spill)
	store := filepath.Join(spill, a.createSession(6).ID)
	_, b := durable(spill) // adopts the session as if a had died
	var rr RehydrateResponse
	b.do("POST", "/v1/admin/rehydrate", nil, &rr)
	if m, _ := filepath.Glob(filepath.Join(store, "ckpt-*.json")); len(rr.Rehydrated) != 1 || len(m) == 0 {
		t.Errorf("rehydrated %v, spill files left %v; want the session and its store", rr.Rehydrated, m)
	}

	file := filepath.Join(t.TempDir(), "file") // a spill directory no write can enter
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, c := durable(file)
	if status := c.do("POST", "/v1/sessions", CreateRequest{Ensemble: "toy", Budget: 6, WindowSec: 10}, nil); status != http.StatusInternalServerError || srv.SessionCount() != 0 {
		t.Errorf("create with a failing spill: status %d, %d sessions; want 500 and none", status, srv.SessionCount())
	}
}

// TestSpillAllRequiresSpillDir mirrors the drain contract.
func TestSpillAllRequiresSpillDir(t *testing.T) {
	if _, err := NewServer().SpillAll(); err == nil {
		t.Fatal("SpillAll without a spill directory succeeded")
	}
}
