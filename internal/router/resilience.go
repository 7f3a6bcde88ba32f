// Serving resilience: the router's failure-handling layer. A per-member
// circuit breaker (closed → open → half-open) is fed by passive transport-
// failure accounting and an active /healthz probe loop; idempotent requests
// and steps are retried with exponential backoff + full jitter under the
// caller's propagated deadline; and when a member's breaker trips with
// failover enabled, the router asks a healthy fallback to rehydrate the
// spilled sessions of every home the dead member was serving and then swaps
// in a routing table that reassigns those homes to the fallback. Retries,
// breakers and probes are always on; only failover, which needs a spill
// directory shared across the fleet, waits for its switch.

package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"miras/internal/httpapi"
	"miras/internal/obs"
)

// Resilience tunes the router's failure handling. A zero or negative field
// takes its default — the values the failover gate (cmd/miras'
// TestFleetFailover) holds its 1% error budget with — so the zero value is a
// resilient router; Failover alone is off until set.
type Resilience struct {
	// MaxRetries is how many extra attempts a retryable request gets after
	// its first failure (default 5). GET/HEAD/DELETE and step POSTs are
	// retryable; a shard answers a repeated step key without stepping
	// again (httpapi.IdempotencyKeyHeader), and the router keys every step.
	MaxRetries int
	// RetryBase and RetryCap bound the backoff between attempts: attempt n
	// waits a uniformly random duration in [0, min(RetryCap, RetryBase·2ⁿ))
	// — "full jitter", so synchronized clients spread out. Defaults: 25ms
	// base, 1s cap.
	RetryBase time.Duration
	RetryCap  time.Duration
	// BreakerThreshold is the consecutive transport-failure count that
	// trips a member's circuit breaker open (default 3). An open breaker
	// fails requests fast (503 upstream_degraded) instead of waiting out
	// dial timeouts.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// admitting one half-open trial request (default 1s).
	BreakerCooldown time.Duration
	// ProbeInterval is the period of the active health-probe loop
	// (RunProbes): every interval the router GETs each member's /healthz,
	// feeding the breakers — a passing probe closes a breaker without
	// waiting for live traffic to trial it (default 250ms).
	ProbeInterval time.Duration
	// Failover, when true, reacts to a breaker trip by asking a healthy
	// fallback member to rehydrate the spilled sessions of every home the
	// dead member served (POST /v1/admin/rehydrate with take_over) and
	// reassigning those homes to the fallback in the routing table.
	// Requires a spill directory shared across the fleet.
	Failover bool
}

// withDefaults replaces every unset field with its default.
func (c Resilience) withDefaults() Resilience {
	c.MaxRetries = orDefault(c.MaxRetries, 5)
	c.RetryBase = orDefault(c.RetryBase, 25*time.Millisecond)
	c.RetryCap = orDefault(c.RetryCap, time.Second)
	c.BreakerThreshold = orDefault(c.BreakerThreshold, 3)
	c.BreakerCooldown = orDefault(c.BreakerCooldown, time.Second)
	c.ProbeInterval = orDefault(c.ProbeInterval, 250*time.Millisecond)
	return c
}

// orDefault returns v, or def when v is not positive.
func orDefault[T int | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// Breaker states, in the order they appear in the
// miras_router_breaker_state gauge.
const (
	breakerClosed   = 0
	breakerHalfOpen = 1
	breakerOpen     = 2
)

// breaker is one member's circuit breaker. Closed, it counts consecutive
// transport failures and trips open at the threshold; open, it rejects
// requests until the cooldown elapses, then admits exactly one half-open
// trial whose outcome closes or re-opens it. A passing active probe closes
// it from any state. All methods are safe for concurrent use.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	gauge     *obs.Gauge

	state    int
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	trial    bool      // a half-open trial request is in flight
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time, gauge *obs.Gauge) *breaker {
	b := &breaker{threshold: threshold, cooldown: cooldown, now: now, gauge: gauge}
	b.setState(breakerClosed)
	return b
}

// setState transitions the breaker and mirrors the state into its gauge.
// Callers hold b.mu.
func (b *breaker) setState(state int) {
	b.state = state
	if b.gauge != nil {
		b.gauge.Set(float64(state))
	}
}

// tripLocked opens the breaker. Callers hold b.mu.
func (b *breaker) tripLocked() {
	b.setState(breakerOpen)
	b.openedAt = b.now()
	b.fails = 0
	b.trial = false
}

// allow reports whether a request may proceed and whether it is the
// half-open trial whose outcome decides the breaker's fate. An open breaker
// past its cooldown flips to half-open and admits the caller as the trial.
func (b *breaker) allow() (ok, trial bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false, false
		}
		b.setState(breakerHalfOpen)
		b.trial = true
		return true, true
	default: // half-open: one trial at a time
		if b.trial {
			return false, false
		}
		b.trial = true
		return true, true
	}
}

// onSuccess records a successful attempt; a successful half-open trial
// closes the breaker.
func (b *breaker) onSuccess(trial bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if trial {
		b.trial = false
		if b.state == breakerHalfOpen {
			b.setState(breakerClosed)
		}
	}
	if b.state == breakerClosed {
		b.fails = 0
	}
}

// onFailure records a transport-level failure and reports whether this call
// tripped the breaker open — the edge on which the router fires failover.
func (b *breaker) onFailure(trial bool) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if trial {
		b.trial = false
	}
	switch b.state {
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.tripLocked()
			return true
		}
	case breakerHalfOpen:
		b.tripLocked()
		return true
	}
	return false
}

// abort releases a half-open trial slot without judging the member — the
// attempt died for the caller's own reasons (deadline, cancellation).
func (b *breaker) abort(trial bool) {
	if !trial {
		return
	}
	b.mu.Lock()
	b.trial = false
	b.mu.Unlock()
}

// recordProbe feeds an active probe result: a pass closes the breaker from
// any state; a failure counts like a transport failure and reports whether
// it tripped the breaker.
func (b *breaker) recordProbe(ok bool) (tripped bool) {
	if !ok {
		return b.onFailure(false)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.setState(breakerClosed)
	b.fails = 0
	b.trial = false
	return false
}

// snapshot returns the current state and consecutive-failure count.
func (b *breaker) snapshot() (state, fails int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.fails
}

// lockedRand is a mutex-guarded rand.Rand so concurrent forwards can share
// one seeded jitter stream.
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{r: rand.New(rand.NewSource(seed))}
}

func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Float64()
}

// retryDelay is the backoff before retry number attempt (0-based): full
// jitter, uniform over [0, min(cap, base·2^attempt)). rnd is a uniform
// [0,1) source.
func retryDelay(attempt int, base, cap time.Duration, rnd func() float64) time.Duration {
	if base <= 0 {
		return 0
	}
	ceil := base
	for i := 0; i < attempt && ceil < cap; i++ {
		ceil *= 2
	}
	if ceil > cap {
		ceil = cap
	}
	return time.Duration(rnd() * float64(ceil))
}

// retryAfter reads a Retry-After response header in its delay-seconds form
// (the HTTP-date form is ignored; our own stack never emits it).
func retryAfter(resp *http.Response) (time.Duration, bool) {
	raw := resp.Header.Get("Retry-After")
	if raw == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(raw)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// retryableRequest reports whether a request with this method, on a
// session path with this op ("" for none), may be transparently retried:
// GET, HEAD, and DELETE are idempotent by the API's contract, and a step
// POST because the shard deduplicates its key. No other POST is retried: no
// shard deduplicates a create, reset, burst, fault plan or policy.
func retryableRequest(method, op string) bool {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodDelete:
		return true
	}
	return isStep(method, op)
}

// isStep reports whether method and op name a POST /v1/sessions/{id}/step.
func isStep(method, op string) bool {
	return method == http.MethodPost && op == "step"
}

// --- active probing ---

// RunProbes runs the active health-probe loop until ctx is done: every
// ProbeInterval, every member's /healthz is probed concurrently and the
// result fed to its breaker. `miras route` runs this in a goroutine.
func (rt *Router) RunProbes(ctx context.Context) {
	t := time.NewTicker(rt.res.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.probeOnce(ctx)
		}
	}
}

// probeOnce probes every member once, concurrently, and reacts to the
// results: a trip fires failover; a member that stays dark with its breaker
// open gets its failover retried (maybeFailover ignores one already in force).
func (rt *Router) probeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range rt.shards {
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			ok := rt.probeMember(ctx, m)
			br := rt.breakers[m]
			if br.recordProbe(ok) {
				rt.onBreakerTrip(m)
			}
			if !ok && rt.res.Failover {
				if state, _ := br.snapshot(); state == breakerOpen {
					rt.maybeFailover(m)
				}
			}
		}(m)
	}
	wg.Wait()
}

// probeMember GETs one member's /healthz under a short deadline.
func (rt *Router) probeMember(ctx context.Context, member string) bool {
	d := rt.res.ProbeInterval
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	pctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, member+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.adminClient.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// --- failover ---

// failoverTimeout bounds the fallback's rehydrate call: rebuilding a dead
// member's sessions replays their full operation logs, so this is generous.
const failoverTimeout = 60 * time.Second

// onBreakerTrip is called on each closed/half-open → open edge.
func (rt *Router) onBreakerTrip(member string) {
	if rt.res.Failover {
		rt.maybeFailover(member)
	}
}

// maybeFailover starts a failover for dead unless one is already in flight
// or in force (dead serves nothing any more). The rehydrate call runs in its
// own goroutine — the request that tripped the breaker must not block on it.
func (rt *Router) maybeFailover(dead string) {
	rt.failMu.Lock()
	defer rt.failMu.Unlock()
	table := rt.table.Load()
	if rt.pending[dead] || table.ServingHome(dead) != dead {
		return
	}
	// The fallback is the first member alive to adopt the sessions: serving
	// its own home, not mid-failover, breaker not open. None means the probe
	// loop retries later.
	for _, m := range rt.shards {
		if m == dead || rt.pending[m] || table.ServingHome(m) != m {
			continue
		}
		if state, _ := rt.breakers[m].snapshot(); state == breakerOpen {
			continue
		}
		rt.pending[dead] = true
		go rt.failOver(dead, m, table.HomesServedBy(dead))
		return
	}
}

// failOver asks fallback to adopt the spilled sessions of homes — every home
// dead was serving, its own and any it had adopted — and, on success, swaps
// in the table that reassigns them to fallback. On failure the pending mark
// is dropped so the probe loop can retry.
func (rt *Router) failOver(dead, fallback string, homes []string) {
	ctx, cancel := context.WithTimeout(context.Background(), failoverTimeout)
	defer cancel()
	body, _ := json.Marshal(httpapi.RehydrateRequest{TakeOver: homes})
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fallback+"/v1/admin/rehydrate", bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		resp, derr := rt.adminClient.Do(req)
		if derr == nil {
			var rr httpapi.RehydrateResponse
			ok = resp.StatusCode == http.StatusOK &&
				json.NewDecoder(resp.Body).Decode(&rr) == nil
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	rt.failMu.Lock()
	delete(rt.pending, dead)
	if ok {
		rt.table.Store(rt.table.Load().Reassign(dead, fallback))
	}
	rt.failMu.Unlock()
	if ok {
		rt.failoverTotal.Inc()
	}
}
