package loadgen

import (
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"miras/internal/httpapi"
	"miras/internal/router"
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
