package router

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"miras/internal/httpapi"
	"miras/internal/loadgen"
)

// testClock is a mutex-guarded fake wall clock for driving breaker
// cooldowns deterministically.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestBreakerStateMachine drives one breaker (threshold 3, cooldown 10s)
// through every transition in the closed → open → half-open machine. Each
// step is an operation plus the state the breaker must land in; allow's
// trial flag threads into the following success/failure/abort, as it does
// in the router's attempt loop.
func TestBreakerStateMachine(t *testing.T) {
	type step struct {
		op        string // allow, success, fail, abort, probe-ok, probe-fail, advance
		d         time.Duration
		wantOK    bool // for allow
		wantTrial bool // for allow
		wantTrip  bool // for fail / probe-fail
		wantState int  // asserted after every step
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"trip-at-threshold-and-close-via-trial", []step{
			{op: "fail", wantState: breakerClosed},
			{op: "fail", wantState: breakerClosed},
			{op: "allow", wantOK: true, wantState: breakerClosed},
			{op: "fail", wantTrip: true, wantState: breakerOpen},
			{op: "allow", wantState: breakerOpen}, // rejected inside cooldown
			{op: "advance", d: 10 * time.Second, wantState: breakerOpen},
			{op: "allow", wantOK: true, wantTrial: true, wantState: breakerHalfOpen},
			{op: "success", wantState: breakerClosed},
		}},
		{"half-open-admits-one-trial", []step{
			{op: "fail", wantState: breakerClosed},
			{op: "fail", wantState: breakerClosed},
			{op: "fail", wantTrip: true, wantState: breakerOpen},
			{op: "advance", d: 10 * time.Second, wantState: breakerOpen},
			{op: "allow", wantOK: true, wantTrial: true, wantState: breakerHalfOpen},
			{op: "allow", wantState: breakerHalfOpen}, // second caller rejected mid-trial
		}},
		{"failed-trial-reopens", []step{
			{op: "fail", wantState: breakerClosed},
			{op: "fail", wantState: breakerClosed},
			{op: "fail", wantTrip: true, wantState: breakerOpen},
			{op: "advance", d: 10 * time.Second, wantState: breakerOpen},
			{op: "allow", wantOK: true, wantTrial: true, wantState: breakerHalfOpen},
			{op: "fail", wantTrip: true, wantState: breakerOpen},
			{op: "allow", wantState: breakerOpen}, // cooldown restarted by the re-trip
		}},
		{"abort-releases-trial-unjudged", []step{
			{op: "fail", wantState: breakerClosed},
			{op: "fail", wantState: breakerClosed},
			{op: "fail", wantTrip: true, wantState: breakerOpen},
			{op: "advance", d: 10 * time.Second, wantState: breakerOpen},
			{op: "allow", wantOK: true, wantTrial: true, wantState: breakerHalfOpen},
			{op: "abort", wantState: breakerHalfOpen},
			// The slot is free again: the next caller becomes the trial.
			{op: "allow", wantOK: true, wantTrial: true, wantState: breakerHalfOpen},
		}},
		{"probe-pass-closes-from-open", []step{
			{op: "fail", wantState: breakerClosed},
			{op: "fail", wantState: breakerClosed},
			{op: "fail", wantTrip: true, wantState: breakerOpen},
			{op: "probe-ok", wantState: breakerClosed},
			{op: "allow", wantOK: true, wantState: breakerClosed},
		}},
		{"probe-failures-count-toward-threshold", []step{
			{op: "probe-fail", wantState: breakerClosed},
			{op: "probe-fail", wantState: breakerClosed},
			{op: "probe-fail", wantTrip: true, wantState: breakerOpen},
		}},
		{"success-resets-consecutive-failures", []step{
			{op: "fail", wantState: breakerClosed},
			{op: "fail", wantState: breakerClosed},
			{op: "success", wantState: breakerClosed},
			{op: "fail", wantState: breakerClosed},
			{op: "fail", wantState: breakerClosed},
			{op: "fail", wantTrip: true, wantState: breakerOpen},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newTestClock()
			b := newBreaker(3, 10*time.Second, clk.Now, nil)
			trial := false
			for i, st := range tc.steps {
				switch st.op {
				case "advance":
					clk.Advance(st.d)
				case "allow":
					ok, tr := b.allow()
					if ok != st.wantOK || tr != st.wantTrial {
						t.Fatalf("step %d allow = (%v,%v), want (%v,%v)",
							i, ok, tr, st.wantOK, st.wantTrial)
					}
					if ok {
						trial = tr
					}
				case "success":
					b.onSuccess(trial)
					trial = false
				case "fail":
					if got := b.onFailure(trial); got != st.wantTrip {
						t.Fatalf("step %d onFailure tripped = %v, want %v", i, got, st.wantTrip)
					}
					trial = false
				case "abort":
					b.abort(trial)
					trial = false
				case "probe-ok":
					b.recordProbe(true)
				case "probe-fail":
					if got := b.recordProbe(false); got != st.wantTrip {
						t.Fatalf("step %d recordProbe tripped = %v, want %v", i, got, st.wantTrip)
					}
				default:
					t.Fatalf("step %d: unknown op %q", i, st.op)
				}
				if state, _ := b.snapshot(); state != st.wantState {
					t.Fatalf("step %d (%s): state %d, want %d", i, st.op, state, st.wantState)
				}
			}
		})
	}
}

// TestBreakerFlapping hammers one breaker from many goroutines with a
// near-zero cooldown so it flaps through all three states continuously —
// the -race companion to the table test. The only assertions are the
// invariants: a legal final state and a failure count below the threshold.
func TestBreakerFlapping(t *testing.T) {
	const threshold = 2
	b := newBreaker(threshold, time.Microsecond, time.Now, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				ok, trial := b.allow()
				if !ok {
					b.recordProbe(i%3 == 0)
					continue
				}
				switch (i + g) % 3 {
				case 0:
					b.onSuccess(trial)
				case 1:
					b.onFailure(trial)
				default:
					b.abort(trial)
				}
				if i%7 == 0 {
					b.snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	state, fails := b.snapshot()
	if state != breakerClosed && state != breakerHalfOpen && state != breakerOpen {
		t.Fatalf("illegal final state %d", state)
	}
	if fails < 0 || fails >= threshold {
		t.Fatalf("failure count %d outside [0,%d)", fails, threshold)
	}
}

// TestRetryDelayFullJitterBounds checks the backoff contract under a
// seeded RNG: every delay for retry n lies in [0, min(cap, base·2ⁿ)), and
// the same seed reproduces the same jitter sequence.
func TestRetryDelayFullJitterBounds(t *testing.T) {
	const (
		base = 25 * time.Millisecond
		cp   = time.Second
	)
	rnd := newLockedRand(42)
	for attempt := 0; attempt < 12; attempt++ {
		ceil := base << attempt
		if ceil > cp || ceil <= 0 {
			ceil = cp
		}
		for i := 0; i < 200; i++ {
			d := retryDelay(attempt, base, cp, rnd.Float64)
			if d < 0 || d >= ceil {
				t.Fatalf("attempt %d: delay %v outside [0,%v)", attempt, d, ceil)
			}
		}
	}

	a, b := newLockedRand(7), newLockedRand(7)
	for i := 0; i < 64; i++ {
		da := retryDelay(i%5, base, cp, a.Float64)
		db := retryDelay(i%5, base, cp, b.Float64)
		if da != db {
			t.Fatalf("draw %d: same seed diverged: %v vs %v", i, da, db)
		}
	}

	if d := retryDelay(3, 0, cp, rnd.Float64); d != 0 {
		t.Fatalf("zero base produced delay %v", d)
	}
}

func TestRetryAfterHeader(t *testing.T) {
	cases := []struct {
		raw  string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"3", 3 * time.Second, true},
		{"0", 0, true},
		{"-1", 0, false},
		{"soon", 0, false},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0, false}, // HTTP-date form unsupported
	}
	for _, tc := range cases {
		resp := &http.Response{Header: http.Header{}}
		if tc.raw != "" {
			resp.Header.Set("Retry-After", tc.raw)
		}
		d, ok := retryAfter(resp)
		if d != tc.want || ok != tc.ok {
			t.Fatalf("retryAfter(%q) = (%v,%v), want (%v,%v)", tc.raw, d, ok, tc.want, tc.ok)
		}
	}
}

// TestRetryableRequest pins the retry contract: GET/HEAD/DELETE and step
// POSTs may be replayed, and no other POST or method may. A key does not
// enter the decision (TestRouterRetriesOnlyStepPOSTs sends keyed and bare
// requests through the router).
func TestRetryableRequest(t *testing.T) {
	cases := []struct {
		method, op string
		want       bool
	}{
		{http.MethodGet, "", true},
		{http.MethodGet, "snapshot", true},
		{http.MethodHead, "", true},
		{http.MethodDelete, "", true},
		{http.MethodPost, "step", true},
		{http.MethodPost, "reset", false},
		{http.MethodPost, "", false},
		{http.MethodPut, "step", false},
		{http.MethodPatch, "", false},
	}
	for _, tc := range cases {
		if got := retryableRequest(tc.method, tc.op); got != tc.want {
			t.Fatalf("retryableRequest(%s, %q) = %v, want %v", tc.method, tc.op, got, tc.want)
		}
	}
}

// TestResilienceDefaults: the zero value is a resilient router at the
// failover gate's settings, a non-positive field takes its default, and an
// explicit value survives.
func TestResilienceDefaults(t *testing.T) {
	want := Resilience{
		MaxRetries:       5,
		RetryBase:        25 * time.Millisecond,
		RetryCap:         time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Second,
		ProbeInterval:    250 * time.Millisecond,
	}
	if got := (Resilience{}).withDefaults(); got != want {
		t.Fatalf("zero value defaults to %+v, want %+v", got, want)
	}
	if got := (Resilience{MaxRetries: -1, BreakerThreshold: -2, ProbeInterval: -time.Second}).withDefaults(); got != want {
		t.Fatalf("negative fields default to %+v, want %+v", got, want)
	}
	explicit := Resilience{
		MaxRetries:       1,
		RetryBase:        time.Millisecond,
		RetryCap:         2 * time.Millisecond,
		BreakerThreshold: 7,
		BreakerCooldown:  time.Hour,
		ProbeInterval:    time.Minute,
		Failover:         true,
	}
	if got := explicit.withDefaults(); got != explicit {
		t.Fatalf("explicit values overwritten: %+v", got)
	}
}

// ctxErrTransport reports a request whose context ended while its member
// answered as a failed round trip, the way net/http's transport drops a
// connection whose request context is cancelled.
type ctxErrTransport struct{ next http.RoundTripper }

func (t ctxErrTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(req)
	if err == nil && req.Context().Err() != nil {
		resp.Body.Close()
		return nil, req.Context().Err()
	}
	return resp, err
}

// TestRouterClientTimeoutBoundsEachAttempt: WithClient's Timeout bounds
// every upstream attempt. A member that blocks until its request's context
// ends must see that context expire, and the router must answer with the
// attempt failure's status and code instead of waiting for the member.
func TestRouterClientTimeoutBoundsEachAttempt(t *testing.T) {
	const member = "http://shard-0"
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	var attempts atomic.Int64
	fleet := loadgen.NewFleetTransport()
	fleet.Register(member, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	rt, err := New([]string{member}, WithClient(&http.Client{
		Transport: ctxErrTransport{fleet},
		Timeout:   30 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path string
		attempts     int64
		status       int
		code         httpapi.ErrorCode
	}{
		// One attempt: a reset is not retried.
		{http.MethodPost, "/v1/sessions/s1/reset", 1, http.StatusBadGateway, httpapi.CodeUpstreamUnreachable},
		// A step is retried until the member's breaker opens after the
		// default three failures; the later attempts fail fast.
		{http.MethodPost, "/v1/sessions/s1/step", 3, http.StatusServiceUnavailable, httpapi.CodeUpstreamDegraded},
	} {
		attempts.Store(0)
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader("{}")))
			done <- rec
		}()
		select {
		case rec := <-done:
			var env httpapi.ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s %s: %d %q: %v", tc.method, tc.path, rec.Code, rec.Body, err)
			}
			if rec.Code != tc.status || env.Error.Code != tc.code {
				t.Fatalf("%s %s: %d %s, want %d %s", tc.method, tc.path, rec.Code, env.Error.Code, tc.status, tc.code)
			}
			if n := attempts.Load(); n != tc.attempts {
				t.Fatalf("%s %s: %d attempts reached the member, want %d", tc.method, tc.path, n, tc.attempts)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s %s: no answer after 10s: the client timeout did not bound the attempt", tc.method, tc.path)
		}
		// The open breaker would fail the next case fast; start it closed.
		rt.breakers[member].recordProbe(true)
	}
}

// TestRouterPassesShardRedirectThrough: a forward is one round trip, so a
// shard's redirect reaches the client as the shard sent it, as
// httputil.ReverseProxy passes it, and the router does not follow it.
func TestRouterPassesShardRedirectThrough(t *testing.T) {
	const member = "http://shard-0"
	var hits atomic.Int64
	fleet := loadgen.NewFleetTransport()
	fleet.Register(member, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Redirect(w, r, "/v1/sessions/s2/step", http.StatusTemporaryRedirect)
	}))
	rt, err := New([]string{member}, WithClient(&http.Client{Transport: fleet}))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/s1/step", strings.NewReader("{}")))
	if rec.Code != http.StatusTemporaryRedirect || rec.Header().Get("Location") != "/v1/sessions/s2/step" {
		t.Fatalf("answer %d Location %q, want 307 to /v1/sessions/s2/step", rec.Code, rec.Header().Get("Location"))
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("the shard saw %d requests, want 1", n)
	}
}
