package router

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"miras/internal/httpapi"
	"miras/internal/obs"
	"miras/internal/shardring"
)

func startRouterWith(t *testing.T, members []string, opts ...Option) (*Router, string) {
	t.Helper()
	rt, err := New(members, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts.URL
}

// deadAddr returns a base URL whose port was just closed — connections to
// it are refused, the cheapest kind of transport failure.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := "http://" + ln.Addr().String()
	ln.Close()
	return addr
}

func decodeEnvelope(t *testing.T, resp *http.Response) httpapi.ErrorEnvelope {
	t.Helper()
	defer resp.Body.Close()
	var env httpapi.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	return env
}

// TestRouterRetriesTransientFailures: a shard that answers 503 twice and
// then recovers is transparent to a GET through a retrying router.
func TestRouterRetriesTransientFailures(t *testing.T) {
	var hits atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true}`))
	}))
	defer flaky.Close()

	_, routerURL := startRouterWith(t, []string{flaky.URL},
		WithResilience(Resilience{MaxRetries: 3, RetryBase: time.Millisecond, RetryCap: 4 * time.Millisecond}))

	resp, err := http.Get(routerURL + "/v1/sessions/s1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after retries, want 200", resp.StatusCode)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("upstream hit %d times, want 3 (2 failures + 1 success)", n)
	}
}

// TestRouterNeverRetriesBarePOST: a POST without an idempotency key gets
// exactly one attempt no matter how the shard answers; the same POST with
// a key is retried to the attempt cap.
func TestRouterNeverRetriesBarePOST(t *testing.T) {
	var hits atomic.Int32
	always503 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer always503.Close()

	_, routerURL := startRouterWith(t, []string{always503.URL},
		WithResilience(Resilience{MaxRetries: 2, RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond}))

	post := func(key string) int {
		req, err := http.NewRequest(http.MethodPost,
			routerURL+"/v1/sessions/s1/step", strings.NewReader(`{"allocation":[1]}`))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set(httpapi.IdempotencyKeyHeader, key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if status := post(""); status != http.StatusServiceUnavailable {
		t.Fatalf("bare POST status %d, want the shard's 503 relayed", status)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("bare POST hit the shard %d times, want exactly 1", n)
	}

	hits.Store(0)
	if status := post("op-1"); status != http.StatusServiceUnavailable {
		t.Fatalf("keyed POST final status %d, want 503", status)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("keyed POST hit the shard %d times, want 3 (1 + 2 retries)", n)
	}
}

// TestRouterDeadlinePropagation: the router honors X-Miras-Deadline-Ms —
// rejecting malformed and exhausted budgets up front, forwarding the
// remaining budget downstream, and converting a mid-flight expiry into a
// 504 deadline_exceeded envelope.
func TestRouterDeadlinePropagation(t *testing.T) {
	var sawDeadline atomic.Value // string
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawDeadline.Store(r.Header.Get(httpapi.DeadlineHeader))
		if strings.HasSuffix(r.URL.Path, "/fast") {
			return
		}
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer slow.Close()

	_, routerURL := startRouterWith(t, []string{slow.URL}, WithResilience(Resilience{MaxRetries: 1}))

	getID := func(id, deadline string) *http.Response {
		req, err := http.NewRequest(http.MethodGet, routerURL+"/v1/sessions/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if deadline != "" {
			req.Header.Set(httpapi.DeadlineHeader, deadline)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	get := func(deadline string) *http.Response { return getID("s1", deadline) }

	// A budget too large for a time.Duration is clamped, not wrapped into a
	// negative one: the request is forwarded with a positive budget.
	for _, huge := range []string{"9223372036855", "9223372036854775807"} {
		resp := getID("fast", huge)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("deadline %q status %d, want 200", huge, resp.StatusCode)
		}
		if raw, _ := sawDeadline.Load().(string); raw == "" || raw[0] == '-' {
			t.Fatalf("deadline %q propagated as %q", huge, raw)
		}
	}

	resp := get("abc")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline status %d, want 400", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != httpapi.CodeBadRequest {
		t.Fatalf("malformed deadline code %q", env.Error.Code)
	}

	resp = get("-5")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("exhausted deadline status %d, want 504", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != httpapi.CodeDeadlineExceeded {
		t.Fatalf("exhausted deadline code %q", env.Error.Code)
	}

	start := time.Now()
	resp = get("150")
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired budget status %d, want 504", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != httpapi.CodeDeadlineExceeded {
		t.Fatalf("expired budget code %q", env.Error.Code)
	}
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("504 took %v; the 150ms budget was not enforced", elapsed)
	}
	raw, _ := sawDeadline.Load().(string)
	if raw == "" {
		t.Fatal("shard never saw the propagated deadline header")
	}
	if ms, err := time.ParseDuration(raw + "ms"); err != nil || ms <= 0 || ms > 150*time.Millisecond {
		t.Fatalf("propagated deadline %q not in (0,150]ms", raw)
	}
}

// TestRouterRetriesRespectDeadline: against a permanently dead shard, a
// generous retry budget must still collapse to the caller's deadline —
// the loop stops backing off once the budget cannot cover the next wait.
func TestRouterRetriesRespectDeadline(t *testing.T) {
	// The breaker threshold is out of reach, so every attempt dials.
	_, routerURL := startRouterWith(t, []string{deadAddr(t)},
		WithResilience(Resilience{MaxRetries: 100, RetryBase: 20 * time.Millisecond, RetryCap: 100 * time.Millisecond,
			BreakerThreshold: 1000}))

	req, err := http.NewRequest(http.MethodGet, routerURL+"/v1/sessions/s1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(httpapi.DeadlineHeader, "150")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	env := decodeEnvelope(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 504 or 502", resp.StatusCode)
	}
	if env.Error.Code != httpapi.CodeDeadlineExceeded && env.Error.Code != httpapi.CodeUpstreamUnreachable {
		t.Fatalf("code %q", env.Error.Code)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("101 retry attempts ran %v past the 150ms deadline", elapsed)
	}
}

// TestRouterBreakerFailsFast: consecutive transport failures trip the
// member's breaker; the next request is rejected without touching the
// network — 503 upstream_degraded with a Retry-After — and the breaker
// gauge reads open. The failures are bare POSTs, one attempt each.
func TestRouterBreakerFailsFast(t *testing.T) {
	dead := deadAddr(t)
	rt, routerURL := startRouterWith(t, []string{dead},
		WithResilience(Resilience{BreakerThreshold: 2, BreakerCooldown: time.Hour}))

	for i := 0; i < 2; i++ {
		resp, err := http.Post(routerURL+"/v1/sessions/s1/step", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		if env := decodeEnvelope(t, resp); resp.StatusCode != http.StatusBadGateway ||
			env.Error.Code != httpapi.CodeUpstreamUnreachable {
			t.Fatalf("failure %d: status %d code %q, want 502 upstream_unreachable",
				i, resp.StatusCode, env.Error.Code)
		}
	}

	resp, err := http.Get(routerURL + "/v1/sessions/s1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tripped-breaker status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3600" {
		t.Fatalf("Retry-After %q, want the cooldown in seconds (3600)", ra)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != httpapi.CodeUpstreamDegraded {
		t.Fatalf("tripped-breaker code %q, want upstream_degraded", env.Error.Code)
	}

	var buf strings.Builder
	if err := rt.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `miras_router_breaker_state{shard="`+dead+`"} 2`) {
		t.Fatalf("breaker gauge not open in metrics:\n%s", buf.String())
	}
}

// TestRouterProbeClosesBreaker: an open breaker over a healthy member is
// closed by one passing active probe — recovery without waiting for live
// traffic to run the half-open trial.
func TestRouterProbeClosesBreaker(t *testing.T) {
	members := startFleet(t, 1)
	rt, routerURL := startRouterWith(t, members,
		WithResilience(Resilience{BreakerThreshold: 1, BreakerCooldown: time.Hour, ProbeInterval: time.Minute}))

	rt.breakers[members[0]].onFailure(false) // trip it by hand
	resp, err := http.Get(routerURL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	rt.probeOnce(context.Background())
	if state, _ := rt.breakers[members[0]].snapshot(); state != breakerClosed {
		t.Fatalf("breaker state %d after passing probe, want closed", state)
	}
	if status := jdo(t, routerURL, "GET", "/v1/sessions", nil, nil); status != http.StatusOK {
		t.Fatalf("post-recovery list status %d", status)
	}
}

// TestRouterFailoverRecoversDeadShardSessions is the end-to-end pin for
// automated shard-failure recovery: two shard processes share a spill
// directory; one is spill-synced and killed; the first failures trip its
// breaker, which triggers a rehydrate of its sessions on the survivor and
// a re-route of its ids. The dead member's sessions must answer through
// the router again, exactly once per the failover counter, and the router
// healthz must name the takeover.
func TestRouterFailoverRecoversDeadShardSessions(t *testing.T) {
	spill := t.TempDir()
	const n = 2
	listeners := make([]net.Listener, n)
	members := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		members[i] = "http://" + ln.Addr().String()
	}
	servers := make([]*httpapi.Server, n)
	tss := make([]*httptest.Server, n)
	for i, ln := range listeners {
		srv := httpapi.NewServer(
			httpapi.WithShardTopology(members[i], members),
			httpapi.WithSpillDir(spill))
		mux := http.NewServeMux()
		mux.Handle("/", srv.Handler())
		obs.MountDebug(mux, srv.Registry())
		ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: mux}}
		ts.Start()
		t.Cleanup(ts.Close)
		servers[i] = srv
		tss[i] = ts
	}

	_, routerURL := startRouterWith(t, members, WithResilience(Resilience{
		MaxRetries:       1,
		RetryBase:        time.Millisecond,
		RetryCap:         2 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  100 * time.Millisecond,
		Failover:         true,
	}))

	ring, err := shardring.New(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	byOwner := map[string][]string{}
	for i := 0; i < 8; i++ {
		var info httpapi.SessionInfo
		if status := jdo(t, routerURL, "POST", "/v1/sessions", httpapi.CreateRequest{
			Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: int64(i + 1),
		}, &info); status != http.StatusCreated {
			t.Fatalf("create %d status %d", i, status)
		}
		if status := jdo(t, routerURL, "POST", "/v1/sessions/"+info.ID+"/step",
			httpapi.StepRequest{Allocation: []int{3, 3}}, nil); status != http.StatusOK {
			t.Fatalf("step %s status %d", info.ID, status)
		}
		owner := ring.Owner(info.ID)
		byOwner[owner] = append(byOwner[owner], info.ID)
	}
	victimIdx := 0
	if len(byOwner[members[0]]) == 0 {
		victimIdx = 1
	}
	victim, survivor := members[victimIdx], members[1-victimIdx]
	victimIDs := byOwner[victim]
	if len(victimIDs) == 0 {
		t.Fatal("no sessions landed on either shard")
	}

	// Spill-sync the victim's sessions (what -spill-sync-interval does in a
	// real deployment), then kill the process.
	if spilled, err := servers[victimIdx].SpillAll(); err != nil || spilled < len(victimIDs) {
		t.Fatalf("SpillAll = (%d, %v), want >= %d sessions", spilled, err, len(victimIDs))
	}
	tss[victimIdx].Close()

	// Drive traffic at a dead-owned id until the failover lands: the first
	// failures trip the breaker, the trip fires the rehydrate on the
	// survivor, and the re-routed GET then serves from the fallback.
	deadlineAt := time.Now().Add(10 * time.Second)
	recovered := false
	for time.Now().Before(deadlineAt) {
		if status := jdo(t, routerURL, "GET", "/v1/sessions/"+victimIDs[0], nil, nil); status == http.StatusOK {
			recovered = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("session %s never recovered after killing its shard", victimIDs[0])
	}

	// Every one of the dead member's sessions serves again — reads and
	// writes — through the router.
	for _, id := range victimIDs {
		if status := jdo(t, routerURL, "GET", "/v1/sessions/"+id, nil, nil); status != http.StatusOK {
			t.Fatalf("post-failover info %s status %d", id, status)
		}
		if status := jdo(t, routerURL, "POST", "/v1/sessions/"+id+"/step",
			httpapi.StepRequest{Allocation: []int{3, 3}}, nil); status != http.StatusOK {
			t.Fatalf("post-failover step %s status %d", id, status)
		}
	}

	// The failover executed exactly once (the dedup holds across re-trips).
	resp, err := http.Get(routerURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "miras_router_failover_total 1") {
		t.Fatal("metrics missing miras_router_failover_total 1")
	}

	// healthz names the takeover: the victim is down with its ids re-routed
	// to the survivor.
	resp, err = http.Get(routerURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		OK     bool `json:"ok"`
		Shards []struct {
			Shard      string `json:"shard"`
			OK         bool   `json:"ok"`
			State      string `json:"state"`
			FailoverTo string `json:"failover_to"`
		} `json:"shards"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hz.OK || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz ok=%v status=%d with a dead member", hz.OK, resp.StatusCode)
	}
	for _, sh := range hz.Shards {
		switch sh.Shard {
		case victim:
			if sh.OK || sh.FailoverTo != survivor {
				t.Fatalf("victim entry %+v, want failover_to=%s", sh, survivor)
			}
			if sh.State != "open-breaker" && sh.State != "half-open" && sh.State != "degraded" {
				t.Fatalf("victim state %q, want a failing state", sh.State)
			}
		case survivor:
			if !sh.OK || sh.FailoverTo != "" {
				t.Fatalf("survivor entry %+v", sh)
			}
		}
	}
}
