package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

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

// TestDeadlineMiddlewareExpiry exercises the middleware against a handler
// that outlives the budget: the client gets a clean 504 deadline_exceeded
// envelope while the abandoned handler's late writes go to the buffer, not
// the wire.
func TestDeadlineMiddlewareExpiry(t *testing.T) {
	released := make(chan struct{})
	h := boundMiddleware(0, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		// Outlive the deadline by a margin so the middleware's select
		// deterministically sees the expiry, not the handler's return.
		time.Sleep(150 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("too late"))
		close(released)
	}))
	req := httptest.NewRequest("GET", "/v1/sessions/s1", nil)
	req.Header.Set(DeadlineHeader, "30")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", rec.Code)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("code %q, want %q", env.Error.Code, CodeDeadlineExceeded)
	}
	if !strings.Contains(env.Error.Message, "30ms") {
		t.Fatalf("message %q does not name the budget", env.Error.Message)
	}
	<-released
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

// createWithID creates a session under a caller-chosen id (the router's
// minted-id path), optionally carrying a failover re-route header.
func createWithID(t *testing.T, c *client, id, failoverFrom string) int {
	t.Helper()
	body := strings.NewReader(`{"ensemble":"toy","budget":6,"window_sec":10}`)
	req, err := http.NewRequest("POST", c.srv.URL+"/v1/sessions", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(SessionIDHeader, id)
	if failoverFrom != "" {
		req.Header.Set(FailoverHeader, failoverFrom)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRehydrateTakeOver is the shard-side half of router failover: a
// fallback process adopts a dead peer's spilled sessions only when the
// rehydrate request names that peer in take_over, and the adopted ids then
// serve from the fallback.
func TestRehydrateTakeOver(t *testing.T) {
	servers, clients, members, idOwnedBy := fleetPair(t)
	a, b := clients[0], clients[1]

	// Two sessions living on B, spill-synced as a crashed process would
	// have left them.
	idOne, idTwo := idOwnedBy(members[1]), idOwnedBy(members[1])
	for _, id := range []string{idOne, idTwo} {
		if status := createWithID(t, b, id, ""); status != http.StatusCreated {
			t.Fatalf("create %s status %d", id, status)
		}
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
// 421 — a missing id is an honest 404 and a re-routed create is accepted.
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

	if status := createWithID(t, a, foreign, ""); status != http.StatusMisdirectedRequest {
		t.Fatalf("foreign create without header: status %d, want 421", status)
	}
	if status := createWithID(t, a, foreign, members[1]); status != http.StatusCreated {
		t.Fatalf("foreign create with failover header: status %d, want 201", status)
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

// TestSpillAllRequiresSpillDir mirrors the drain contract.
func TestSpillAllRequiresSpillDir(t *testing.T) {
	if _, err := NewServer().SpillAll(); err == nil {
		t.Fatal("SpillAll without a spill directory succeeded")
	}
}

// TestBoundMiddlewareTighterBoundWins: with both a server request timeout
// and a caller deadline in play there is one bound — the tighter — and it
// labels the refusal: 408 when the server's tripped, 504 when the caller's
// did. With neither, the handler runs on the caller's goroutine, straight
// onto the caller's ResponseWriter.
func TestBoundMiddlewareTighterBoundWins(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		time.Sleep(100 * time.Millisecond) // lose the race to the middleware's select
	})
	for _, tc := range []struct {
		name       string
		server     time.Duration
		header     string
		status     int
		code       ErrorCode
		messageHas string
	}{
		{"server tighter", 30 * time.Millisecond, "5000", http.StatusRequestTimeout, CodeRequestTimeout, "30ms"},
		{"caller tighter", 5 * time.Second, "30", http.StatusGatewayTimeout, CodeDeadlineExceeded, "30ms"},
		{"tie goes to the caller", 30 * time.Millisecond, "30", http.StatusGatewayTimeout, CodeDeadlineExceeded, "30ms"},
	} {
		req := httptest.NewRequest("GET", "/v1/sessions/s1", nil)
		req.Header.Set(DeadlineHeader, tc.header)
		rec := httptest.NewRecorder()
		boundMiddleware(tc.server, slow).ServeHTTP(rec, req)
		var env ErrorEnvelope
		if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rec.Code != tc.status || env.Error.Code != tc.code || !strings.Contains(env.Error.Message, tc.messageHas) {
			t.Fatalf("%s: status %d envelope %+v, want %d %s naming %s",
				tc.name, rec.Code, env.Error, tc.status, tc.code, tc.messageHas)
		}
	}

	rec := httptest.NewRecorder()
	boundMiddleware(0, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if w != http.ResponseWriter(rec) {
			t.Error("unbounded request got a buffered ResponseWriter")
		}
		if _, ok := r.Context().Deadline(); ok {
			t.Error("unbounded request got a context deadline")
		}
		stack := make([]byte, 16<<10)
		if stack = stack[:runtime.Stack(stack, false)]; !strings.Contains(string(stack), "TestBoundMiddlewareTighterBoundWins") {
			t.Errorf("unbounded request left the caller's goroutine:\n%s", stack)
		}
	})).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions/s1", nil))
}
