package loadgen

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"miras/internal/httpapi"
	"miras/internal/router"
	"miras/internal/shardring"
)

func TestFleetTransportKillRevive(t *testing.T) {
	fleet := NewFleetTransport()
	fleet.Register("http://shard-0", httpapi.NewServer().Handler())

	get := func(url string) (*http.Response, error) {
		req, err := http.NewRequest("GET", url, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fleet.RoundTrip(req)
	}

	resp, err := get("http://shard-0/v1/ensembles")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("live member: (%v, %v)", resp, err)
	}
	resp.Body.Close()

	if _, err := get("http://shard-9/v1/ensembles"); err == nil ||
		!strings.Contains(err.Error(), "no member") {
		t.Fatalf("unknown member error %v", err)
	}

	fleet.Kill("http://shard-0")
	if _, err := get("http://shard-0/v1/ensembles"); err == nil ||
		!strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("killed member error %v, want a dial-style failure", err)
	}

	fleet.Revive("http://shard-0")
	resp, err = get("http://shard-0/v1/ensembles")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("revived member: (%v, %v)", resp, err)
	}
	resp.Body.Close()
}

func TestChaosConfigValidation(t *testing.T) {
	base := Config{Target: "http://x"}

	cfg := base
	cfg.ChaosKillAt = 0.5
	if _, err := GenTrace(cfg); err == nil {
		t.Fatal("ChaosKillAt without KillHook accepted")
	}
	cfg.ChaosKillAt = 1.5
	cfg.KillHook = func() {}
	if _, err := GenTrace(cfg); err == nil {
		t.Fatal("ChaosKillAt >= 1 accepted")
	}
	cfg = base
	cfg.ErrorBudget = 1.5
	if _, err := GenTrace(cfg); err == nil {
		t.Fatal("ErrorBudget > 1 accepted")
	}
}

// TestChaosRunMeasuresOutage: a mid-trace kill of the only member leaves
// the rest of the replay failing, and the summary's availability and
// error-budget columns quantify exactly that — while the pre-kill half
// stays healthy.
func TestChaosRunMeasuresOutage(t *testing.T) {
	fleet := NewFleetTransport()
	fleet.Register("http://shard-0", httpapi.NewServer(httpapi.WithMaxSessions(16)).Handler())

	var kills atomic.Int32
	res, err := Run(Config{
		Target:      "http://shard-0",
		Transport:   fleet,
		Requests:    200,
		Sessions:    4,
		Concurrency: 1, // serialize so the kill point is exact
		Seed:        3,
		ChaosKillAt: 0.5,
		KillHook: func() {
			kills.Add(1)
			fleet.Kill("http://shard-0")
		},
		IdempotencyKeys: true,
		ErrorBudget:     0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if kills.Load() != 1 {
		t.Fatalf("kill hook ran %d times, want exactly once", kills.Load())
	}
	if res.ChaosKillAt != 0.5 {
		t.Fatalf("summary chaos_kill_at %g", res.ChaosKillAt)
	}
	// The kill lands at op 100; the dispatch channel's buffer lets a couple
	// of already-queued ops die with it, so allow that slack either way.
	okCount, dead := res.Statuses["200"], res.Statuses["transport_error"]
	if okCount < 95 || okCount > 100 || okCount+dead != 200 {
		t.Fatalf("status counts %v, want ~100 OKs then transport errors", res.Statuses)
	}
	if res.ErrorRate < 0.5 || res.ErrorRate > 0.53 {
		t.Fatalf("error_rate %g, want ~0.5", res.ErrorRate)
	}
	if res.AvailabilityPct != 100*(1-res.ErrorRate) {
		t.Fatalf("availability %g inconsistent with error_rate %g", res.AvailabilityPct, res.ErrorRate)
	}
	if res.ErrorBudget != 0.8 || res.WithinErrorBudget == nil || !*res.WithinErrorBudget {
		t.Fatalf("budget verdict %v within %v, want within 0.8", res.ErrorBudget, res.WithinErrorBudget)
	}

	// A tighter budget flips the verdict.
	fleet.Revive("http://shard-0")
	res, err = Run(Config{
		Target:      "http://shard-0",
		Transport:   fleet,
		Requests:    100,
		Sessions:    4,
		Concurrency: 1,
		Seed:        3,
		ChaosKillAt: 0.5,
		KillHook:    func() { fleet.Kill("http://shard-0") },
		ErrorBudget: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WithinErrorBudget == nil || *res.WithinErrorBudget {
		t.Fatalf("50%% outage passed a 1%% error budget: %+v", res)
	}
}

// TestChaosRunThroughResilientRouter: a seeded Zipf trace through a
// resilient in-process router (retries, breakers, automated failover) over
// two shards sharing a spill directory; one shard is spilled and killed at
// 40% of the trace — what -spill-sync-interval plus a SIGKILL amount to in
// production. The failover path must actually run, and client-visible
// availability across the outage must stay at or above 95%.
func TestChaosRunThroughResilientRouter(t *testing.T) {
	spill := t.TempDir()
	members := []string{"http://shard-0", "http://shard-1"}
	fleet := NewFleetTransport()
	servers := make([]*httpapi.Server, len(members))
	for i, m := range members {
		servers[i] = httpapi.NewServer(
			httpapi.WithShardTopology(m, members),
			httpapi.WithSpillDir(spill),
		)
		fleet.Register(m, servers[i].Handler())
	}
	rt, err := router.New(members,
		router.WithClient(&http.Client{Transport: fleet}),
		router.WithResilience(router.Resilience{
			MaxRetries:       4,
			RetryBase:        time.Millisecond,
			RetryCap:         20 * time.Millisecond,
			BreakerThreshold: 2,
			BreakerCooldown:  50 * time.Millisecond,
			Failover:         true,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	res, err := Run(Config{
		Transport:       NewHandlerTransport(rt.Handler()),
		Requests:        800,
		Sessions:        16,
		Concurrency:     8,
		Skew:            "zipf",
		Seed:            1,
		IdempotencyKeys: true,
		ChaosKillAt:     0.4,
		KillHook: func() {
			_, _ = servers[1].SpillAll()
			fleet.Kill(members[1])
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The failover rehydrate runs in a router goroutine; give a straggler a
	// moment before declaring the recovery path broken.
	failovers := rt.Registry().Counter("miras_router_failover_total", "")
	for wait := 0; failovers.Value() == 0 && wait < 200; wait++ {
		time.Sleep(10 * time.Millisecond)
	}
	if failovers.Value() == 0 {
		t.Fatalf("shard kill at 40%% of the trace triggered no failover (statuses %v)", res.Statuses)
	}
	if res.AvailabilityPct < 95 {
		t.Fatalf("availability %.2f%% across the outage, want >= 95 (statuses %v)",
			res.AvailabilityPct, res.Statuses)
	}
}

// TestRouterDefaultsAreResilient: a router built with no WithResilience
// retries, trips breakers and reports them. With one of two members killed,
// reads of that member's session are retried, its breaker opens, later
// requests fail fast with 503 upstream_degraded and a Retry-After, and
// /healthz names the breaker state.
func TestRouterDefaultsAreResilient(t *testing.T) {
	members := []string{"http://shard-0", "http://shard-1"}
	fleet := NewFleetTransport()
	for _, m := range members {
		fleet.Register(m, httpapi.NewServer(httpapi.WithShardTopology(m, members)).Handler())
	}
	rt, err := router.New(members, router.WithClient(&http.Client{Transport: fleet}))
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: NewHandlerTransport(rt.Handler())}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := client.Get("http://router" + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	table, err := shardring.NewTable(members)
	if err != nil {
		t.Fatal(err)
	}
	victim, id := members[1], ""
	for i := 0; id == "" && i < 32; i++ {
		body, _ := json.Marshal(httpapi.CreateRequest{Ensemble: "toy", Budget: 6, WindowSec: 10})
		resp, err := client.Post("http://router/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var info httpapi.SessionInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: status %d, %v", resp.StatusCode, err)
		}
		resp.Body.Close()
		if table.Home(info.ID) == victim {
			id = info.ID
		}
	}
	if id == "" {
		t.Fatal("no session landed on the victim")
	}
	fleet.Kill(victim)

	for i := 0; i < 2; i++ {
		resp := get("/v1/sessions/" + id)
		var env httpapi.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != httpapi.CodeUpstreamDegraded ||
			resp.Header.Get("Retry-After") == "" {
			t.Fatalf("read %d of a dead member: status %d code %q Retry-After %q, want 503 upstream_degraded with Retry-After",
				i, resp.StatusCode, env.Error.Code, resp.Header.Get("Retry-After"))
		}
	}
	if n := rt.Registry().Counter("miras_router_retries_total", "", "shard", victim).Value(); n == 0 {
		t.Fatal("no retries recorded against the dead member")
	}

	resp := get("/healthz")
	var hz struct {
		Shards []struct {
			Shard string `json:"shard"`
			State string `json:"state"`
		} `json:"shards"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]string{}
	for _, sh := range hz.Shards {
		states[sh.Shard] = sh.State
	}
	if states[victim] != "open-breaker" || states[members[0]] != "healthy" {
		t.Fatalf("/healthz breaker states %v, want the victim open-breaker and the survivor healthy", states)
	}
}

// TestChainedFailoverKeepsFirstVictimSessions: three shards share a spill
// directory; A dies and B adopts its sessions, then B dies too. The second
// failover must hand C every home B was serving — A's as well as B's own —
// or A's sessions (spill-synced by B) stay on disk while the router sends
// their requests to C. A's session must step on C with its history intact.
func TestChainedFailoverKeepsFirstVictimSessions(t *testing.T) {
	spill := t.TempDir()
	members := []string{"http://shard-a", "http://shard-b", "http://shard-c"}
	fleet := NewFleetTransport()
	servers := make([]*httpapi.Server, len(members))
	for i, m := range members {
		servers[i] = httpapi.NewServer(
			httpapi.WithShardTopology(m, members),
			httpapi.WithSpillDir(spill),
		)
		fleet.Register(m, servers[i].Handler())
	}
	rt, err := router.New(members,
		router.WithClient(&http.Client{Transport: fleet}),
		router.WithResilience(router.Resilience{
			MaxRetries:       1,
			RetryBase:        time.Millisecond,
			RetryCap:         2 * time.Millisecond,
			BreakerThreshold: 1,
			BreakerCooldown:  20 * time.Millisecond,
			Failover:         true,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: NewHandlerTransport(rt.Handler())}
	call := func(method, path string, body, out any) int {
		t.Helper()
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				t.Fatal(err)
			}
		}
		req, err := http.NewRequest(method, "http://router"+path, &buf)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	step := func(id string) int {
		t.Helper()
		return call("POST", "/v1/sessions/"+id+"/step", httpapi.StepRequest{Allocation: []int{3, 3}}, nil)
	}

	// A session homed on A, with two windows of history.
	table, err := shardring.NewTable(members)
	if err != nil {
		t.Fatal(err)
	}
	id := ""
	for i := 0; id == "" && i < 32; i++ {
		var info httpapi.SessionInfo
		if status := call("POST", "/v1/sessions", httpapi.CreateRequest{
			Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: int64(i + 1),
		}, &info); status != http.StatusCreated {
			t.Fatalf("create %d status %d", i, status)
		}
		if table.Home(info.ID) == members[0] {
			id = info.ID
		}
	}
	if id == "" {
		t.Fatal("no session landed on shard A")
	}
	for i := 0; i < 2; i++ {
		if status := step(id); status != http.StatusOK {
			t.Fatalf("pre-crash step status %d", status)
		}
	}

	// killAndAwaitFailover spill-syncs and kills member i, then drives reads
	// at the session until the router has executed its n-th failover.
	failovers := rt.Registry().Counter("miras_router_failover_total", "")
	killAndAwaitFailover := func(i int, n uint64) {
		t.Helper()
		if _, err := servers[i].SpillAll(); err != nil {
			t.Fatal(err)
		}
		fleet.Kill(members[i])
		for wait := 0; failovers.Value() < n && wait < 500; wait++ {
			call("GET", "/v1/sessions/"+id, nil, nil)
			time.Sleep(10 * time.Millisecond)
		}
		if failovers.Value() < n {
			t.Fatalf("killing %s triggered no failover", members[i])
		}
	}

	killAndAwaitFailover(0, 1)
	if status := step(id); status != http.StatusOK {
		t.Fatalf("step on B after A died: status %d", status)
	}
	killAndAwaitFailover(1, 2)

	var info httpapi.SessionInfo
	if status := call("GET", "/v1/sessions/"+id, nil, &info); status != http.StatusOK {
		t.Fatalf("A's session after A→B→C: status %d, want 200 from C", status)
	}
	if info.Windows != 3 {
		t.Fatalf("A's session reached C with %d windows, want 3", info.Windows)
	}
	if status := step(id); status != http.StatusOK {
		t.Fatalf("step on C: status %d", status)
	}
	if n := servers[2].SessionCount(); n == 0 {
		t.Fatal("C serves nothing after two failovers")
	}
}

// TestIdempotencyKeysAreUnique: every step POST carries its own key (the
// trace index), so a router can safely retry any one of them.
func TestIdempotencyKeysAreUnique(t *testing.T) {
	seen := make(map[string]int)
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	inner := httpapi.NewServer(httpapi.WithMaxSessions(16)).Handler()
	fleet := NewFleetTransport()
	fleet.Register("http://shard-0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if key := r.Header.Get(httpapi.IdempotencyKeyHeader); key != "" {
			<-mu
			seen[key]++
			mu <- struct{}{}
		}
		inner.ServeHTTP(w, r)
	}))

	if _, err := Run(Config{
		Target:          "http://shard-0",
		Transport:       fleet,
		Requests:        150,
		Sessions:        4,
		Concurrency:     4,
		Seed:            5,
		StepShare:       1,
		IdempotencyKeys: true,
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 150 {
		t.Fatalf("saw %d distinct keys for 150 steps", len(seen))
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("key %q reused %d times", key, n)
		}
	}
}
