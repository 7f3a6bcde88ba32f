// Package router implements `miras route`: the thin coordinator in front of
// a fleet of `miras serve` shard processes. The router owns nothing but the
// consistent-hash ring (shared derivation with the shards — no gossip, no
// state): it forwards every /v1/sessions/{id}/* request to the process the
// ring assigns the id to, spreads POST /v1/sessions over the members, fans
// GET /v1/sessions out to every shard and merges the pages, and merges
// every shard's /metrics into one exposition page with a shard label.
//
// The router is deliberately dumb: it holds no session state and mints no
// session id. Its n-th create goes to the member serving ring key r<n>, and
// that shard mints the id (see httpapi's Sharding section). The counter is
// only a spread key, so router replicas, and a router restarted while its
// sessions live, create without colliding. Shard membership is fixed at
// startup — resizing the fleet is a drain/rehydrate operation on the
// shards, not a router concern.
//
// Placement is one value: a shardring.Table (ring + reassignment rows)
// held in an atomic pointer, so a forwarded request reads it without a
// lock. The resilience layer (see resilience.go), on by default and tuned
// with WithResilience, adds per-member circuit breakers fed by passive
// failure accounting and an active probe loop, bounded retries with
// jittered backoff for idempotent requests and steps (every step is keyed,
// so its shard answers a retry without stepping twice), deadline
// propagation via the X-Miras-Deadline-Ms header, and, once switched on,
// automated shard failover: a tripped breaker triggers a rehydrate of the
// homes the dead member was serving on a fallback, then a table swap that
// reassigns them.
// The table is the only state this adds — a router restart merely
// re-detects the outage and fails over again.
package router

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"miras/internal/httpapi"
	"miras/internal/obs"
	"miras/internal/shardring"
)

// Router forwards v1 API traffic to the owning shard process. Safe for
// concurrent use.
type Router struct {
	// table answers "who serves id X" for every forward; failOver swaps in
	// a reassigned copy. shards is the member list, fixed at startup.
	table  atomic.Pointer[shardring.Table]
	shards []string
	// bases holds each member's parsed base URL, so a forward copies one
	// instead of parsing a URL per attempt.
	bases  map[string]*url.URL
	client *http.Client
	// transport sends every forward attempt: the client's transport, or
	// http.DefaultTransport when it sets none. attemptTimeout is the
	// client's Timeout, applied to each attempt through its context.
	transport      http.RoundTripper
	attemptTimeout time.Duration
	// adminClient shares the forwarding client's transport but carries no
	// per-attempt timeout: probes bound themselves with contexts, and a
	// failover rehydrate may legitimately run long.
	adminClient *http.Client
	reg         *obs.Registry
	// creates counts this router's creates: the n-th is spread to the
	// member serving ring key r<n>.
	creates atomic.Int64
	// keyPrefix and nextKey mint the idempotency key of every step that
	// arrives without one; the random prefix keeps a restarted router or a
	// second replica from reusing a key.
	keyPrefix string
	nextKey   atomic.Uint64

	// res is the resilience configuration with defaults applied; breakers
	// maps each member to its circuit breaker and rnd is the shared seeded
	// jitter stream for retry backoff.
	res      Resilience
	breakers map[string]*breaker
	rnd      *lockedRand

	// failMu serialises the failover path only: pending marks failovers in
	// flight, and table swaps happen under it.
	failMu  sync.Mutex
	pending map[string]bool

	reqs          map[string]*obs.Counter // forwards by shard
	upErrs        map[string]*obs.Counter // unreachable upstreams by shard
	retries       map[string]*obs.Counter // retried attempts by shard
	failoverTotal *obs.Counter
	duration      *obs.Histogram
}

// Option configures a Router.
type Option func(*Router)

// WithClient overrides the HTTP client used to reach shards (default: a
// 30s per-attempt timeout, 5s dials, 32 idle connections per member). Its
// Timeout bounds each upstream attempt, body included; the whole-request
// budget is the caller's propagated deadline. A forward is sent through the
// client's Transport directly, so the client never follows a shard's
// redirect: a 3xx reaches the caller as the shard sent it.
func WithClient(c *http.Client) Option {
	return func(rt *Router) { rt.client = c }
}

// WithResilience tunes the failure-handling layer (see Resilience) and
// switches failover on or off. Without it the router runs Resilience{}:
// retries, breakers and probes at their defaults, no failover.
func WithResilience(c Resilience) Option {
	return func(rt *Router) { rt.res = c }
}

// New builds a router over the shard processes at the given base URLs
// (e.g. "http://10.0.0.1:8080"). The URL list is the ring member list and
// must match the -members list every shard was started with — both
// sides derive ownership from it independently.
func New(shards []string, opts ...Option) (*Router, error) {
	table, err := shardring.NewTable(shards)
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	rt := &Router{
		shards: append([]string(nil), shards...),
		bases:  make(map[string]*url.URL, len(shards)),
		reg:    obs.NewRegistry(),
	}
	for _, sh := range shards {
		u, err := url.Parse(sh)
		if err != nil {
			return nil, fmt.Errorf("router: member %q: %w", sh, err)
		}
		rt.bases[sh] = u
	}
	for _, o := range opts {
		o(rt)
	}
	if rt.client == nil {
		rt.client = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
				MaxIdleConns:        32 * len(shards),
				MaxIdleConnsPerHost: 32,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	rt.transport, rt.attemptTimeout = rt.client.Transport, rt.client.Timeout
	if rt.transport == nil {
		rt.transport = http.DefaultTransport
	}
	rt.res = rt.res.withDefaults()
	rt.adminClient = &http.Client{Transport: rt.client.Transport}
	rt.rnd = newLockedRand(1)
	rt.keyPrefix = rand.Text() + "-"
	rt.table.Store(table)
	rt.pending = make(map[string]bool)
	rt.reqs = make(map[string]*obs.Counter, len(shards))
	rt.upErrs = make(map[string]*obs.Counter, len(shards))
	rt.retries = make(map[string]*obs.Counter, len(shards))
	rt.breakers = make(map[string]*breaker, len(shards))
	for _, sh := range shards {
		rt.reqs[sh] = rt.reg.Counter("miras_router_requests_total",
			"Requests forwarded, by shard.", "shard", sh)
		rt.upErrs[sh] = rt.reg.Counter("miras_router_upstream_errors_total",
			"Forwards that failed to reach their shard, by shard.", "shard", sh)
		rt.retries[sh] = rt.reg.Counter("miras_router_retries_total",
			"Forward attempts retried after a failure, by the shard that failed.", "shard", sh)
		rt.breakers[sh] = newBreaker(rt.res.BreakerThreshold, rt.res.BreakerCooldown,
			time.Now, rt.reg.Gauge("miras_router_breaker_state",
				"Circuit breaker state, by shard (0 closed, 1 half-open, 2 open).",
				"shard", sh))
	}
	rt.failoverTotal = rt.reg.Counter("miras_router_failover_total",
		"Shard failovers executed: a dead member's spilled sessions rehydrated on a fallback and its ids re-routed.")
	rt.duration = rt.reg.Histogram("miras_router_request_duration_seconds",
		"End-to-end latency of requests the router forwards, answers it gives itself included.", nil)
	return rt, nil
}

// Registry exposes the router's own metric registry.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Handler returns the routed http.Handler. Every /v1/sessions/{id} and
// /v1/sessions/{id}/{op} request, whatever its method, is forwarded to the
// id's owner (or the fallback serving it after a failover), which answers
// an unknown op or a wrong method itself; httpapi.SessionPath cuts the
// path, and every other path goes to the mux.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	mux.HandleFunc("GET /v1/sessions", rt.handleList)
	mux.HandleFunc("GET /v1/ensembles", rt.handleEnsembles)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, op, ok := httpapi.SessionPath(r); ok {
			rt.proxy(w, r, id, op)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// proxy forwards the request to the member serving id, preserving method,
// path, query, body, and headers both ways. id is the routing key: a
// session id, or "" for a request any member can answer (the ensemble
// catalog), which rides the same path under the empty key; op is the
// session path's op ("" for none), which decides whether it is retried.
// Every attempt re-reads the routing table, so a failover landing mid-retry
// redirects the next attempt, and an attempt that leaves the id's ring home
// carries the reassignment row as X-Miras-Failover-From. Retryable
// requests get Resilience.MaxRetries extra attempts with jittered backoff,
// each gated by the member's circuit breaker and bounded by the caller's
// propagated deadline; the final failure is classified as 504
// deadline_exceeded, 503 upstream_degraded (breaker open), or 502
// upstream_unreachable.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, id, op string) {
	start := time.Now()
	defer func() { rt.duration.Observe(time.Since(start).Seconds()) }()
	// Buffer the body so retries and failover re-routes can resend it. The
	// shard-side body cap (64 MiB) bounds what a well-behaved client sends.
	// A small body of known length is read into a slice of exactly that
	// length: io.ReadAll starts every read with a 512-byte buffer, more than
	// a step body's twenty-odd bytes.
	var body []byte
	if r.Body != nil {
		var b []byte
		var err error
		if n := r.ContentLength; n > 0 && n <= 1<<16 {
			b = make([]byte, n)
			_, err = io.ReadFull(r.Body, b)
		} else {
			b, err = io.ReadAll(r.Body)
		}
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest,
				fmt.Errorf("read request body: %v", err))
			return
		}
		body = b
	}
	// The whole-request budget is the caller's propagated deadline, if any.
	// Attempts, backoffs, and the downstream X-Miras-Deadline-Ms headers all
	// derive from it.
	budget, ok := httpapi.RequestDeadline(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}

	maxAttempts := 1
	if retryableRequest(r.Method, op) {
		maxAttempts = 1 + rt.res.MaxRetries
	}
	// A step without a key gets one, the same on every attempt, so that its
	// shard answers a retry instead of stepping again.
	var stepKey string
	if isStep(r.Method, op) && r.Header.Get(httpapi.IdempotencyKeyHeader) == "" {
		var buf [64]byte
		stepKey = string(strconv.AppendUint(append(buf[:0], rt.keyPrefix...), rt.nextKey.Add(1), 10))
	}

	var (
		lastErr     error
		breakerHit  string        // member whose open breaker rejected the last attempt
		retryIn     time.Duration // Retry-After from the last retryable response
		lastAttempt int
		failed      string // member of the last attempt
	)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		lastAttempt = attempt
		if attempt > 0 {
			wait := retryDelay(attempt-1, rt.res.RetryBase, rt.res.RetryCap, rt.rnd.Float64)
			if retryIn > wait {
				wait = retryIn
			}
			retryIn = 0
			if dl, ok := ctx.Deadline(); ok && time.Now().Add(wait).After(dl) {
				break // the backoff alone would outlive the budget
			}
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
			if ctx.Err() != nil {
				break
			}
		}
		shard, home := rt.table.Load().Serving(id)
		if attempt > 0 {
			// Charged to the member that failed, wherever the retry goes: a
			// failover may re-route it before it is sent.
			rt.retries[failed].Inc()
		}
		failed = shard

		br := rt.breakers[shard]
		ok, trial := br.allow()
		if !ok {
			breakerHit = shard
			lastErr = fmt.Errorf("shard %s circuit breaker open", shard)
			continue
		}
		breakerHit = ""

		// The client's Timeout bounds this attempt, reading the answer
		// included; cancel ends it once the answer is copied or dropped.
		actx, cancel := ctx, context.CancelFunc(func() {})
		if rt.attemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, rt.attemptTimeout)
		}
		req, err := rt.upstream(actx, shard, r, body)
		if err != nil {
			cancel()
			br.abort(trial)
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err)
			return
		}
		if dl, ok := ctx.Deadline(); ok {
			remaining := time.Until(dl).Milliseconds()
			if remaining < 1 {
				remaining = 1
			}
			req.Header.Set(httpapi.DeadlineHeader, strconv.FormatInt(remaining, 10))
		}
		if shard != home {
			req.Header.Set(httpapi.FailoverHeader, home)
		}
		if stepKey != "" {
			req.Header.Set(httpapi.IdempotencyKeyHeader, stepKey)
		}

		resp, err := rt.transport.RoundTrip(req)
		rt.reqs[shard].Inc()
		if err != nil {
			cancel()
			rt.upErrs[shard].Inc()
			if ctx.Err() != nil {
				// The budget expired (or the caller went away) mid-attempt —
				// the member is not to blame; release any trial slot unjudged.
				br.abort(trial)
				lastErr = fmt.Errorf("shard %s unreachable: %v", shard, err)
				break
			}
			if br.onFailure(trial) {
				rt.onBreakerTrip(shard)
			}
			lastErr = fmt.Errorf("shard %s unreachable: %v", shard, err)
			continue
		}
		br.onSuccess(trial)
		// Backpressure statuses are retried in place when attempts remain;
		// the shard's Retry-After, if any, floors the next backoff.
		if (resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable) && attempt < maxAttempts-1 {
			if d, ok := retryAfter(resp); ok {
				retryIn = d
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			cancel()
			lastErr = fmt.Errorf("shard %s answered status %d", shard, resp.StatusCode)
			continue
		}
		h := w.Header()
		for k, vs := range resp.Header {
			h[k] = vs
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
		resp.Body.Close()
		cancel()
		return
	}

	switch {
	case ctx.Err() == context.DeadlineExceeded:
		httpapi.WriteError(w, http.StatusGatewayTimeout, httpapi.CodeDeadlineExceeded,
			fmt.Errorf("request deadline exceeded after %d attempt(s): %v", lastAttempt+1, lastErr))
	case breakerHit != "":
		// Fail fast, but tell the client when it is worth coming back.
		w.Header().Set("Retry-After",
			strconv.Itoa(int((rt.res.BreakerCooldown+time.Second-1)/time.Second)))
		httpapi.WriteError(w, http.StatusServiceUnavailable, httpapi.CodeUpstreamDegraded,
			fmt.Errorf("shard %s degraded: circuit breaker open", breakerHit))
	default:
		httpapi.WriteError(w, http.StatusBadGateway, httpapi.CodeUpstreamUnreachable, lastErr)
	}
}

// upstream builds one attempt's request to member shard: r's method, path,
// query and headers under the member's base URL, with body as the payload.
// http.NewRequestWithContext sets ContentLength and GetBody from the
// reader, so the transport can resend the body on a stale keep-alive
// connection; the URL becomes a copy of the parsed base, and r's
// headers are copied into the request's own map (values shared: a forward
// replaces a header, never appends to one).
func (rt *Router) upstream(ctx context.Context, shard string, r *http.Request, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, r.Method, "", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	base := rt.bases[shard]
	u := req.URL // parsed from "", so the request's own; overwrite it in place
	*u = *base
	u.Path = base.Path + r.URL.Path
	u.RawPath = ""
	if base.RawPath != "" || r.URL.RawPath != "" {
		u.RawPath = base.EscapedPath() + r.URL.EscapedPath()
	}
	u.RawQuery = r.URL.RawQuery
	req.Host = u.Host
	maps.Copy(req.Header, r.Header)
	return req, nil
}

// handleCreate forwards the create to the member serving ring key r<n>, n
// counting this router's creates; that shard mints the session id.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	rt.proxy(w, r, "r"+strconv.FormatInt(rt.creates.Add(1), 10), "")
}

// handleEnsembles serves the static ensemble catalog from whichever member
// serves the empty key (the catalog is identical everywhere).
func (rt *Router) handleEnsembles(w http.ResponseWriter, r *http.Request) {
	rt.proxy(w, r, "", "")
}

// get issues one fan-out GET bound to the inbound request's context, so a
// client that disconnects cancels the upstream calls made on its behalf.
func (rt *Router) get(ctx context.Context, target string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	return rt.client.Do(req)
}

// handleList fans GET /v1/sessions out to every shard and merges the
// results into one id-ordered page. Each shard is asked for a full page
// (httpapi.MaxListLimit), so the merged listing is exact as long as no
// single shard holds more than a full page of sessions past the token.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, ok := httpapi.ListLimit(w, q)
	if !ok {
		return
	}
	token := q.Get("page_token")

	type shardPage struct {
		page httpapi.ListResponse
		err  error
	}
	pages := make([]shardPage, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(i int, sh string) {
			defer wg.Done()
			// The token is a client-chosen session id and may hold query
			// metacharacters (&, +, %, =, #); encode it.
			upstream := url.Values{"limit": {strconv.Itoa(httpapi.MaxListLimit)}}
			if token != "" {
				upstream.Set("page_token", token)
			}
			resp, err := rt.get(r.Context(), sh+"/v1/sessions?"+upstream.Encode())
			rt.reqs[sh].Inc()
			if err != nil {
				rt.upErrs[sh].Inc()
				pages[i].err = fmt.Errorf("shard %s unreachable: %v", sh, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				pages[i].err = fmt.Errorf("shard %s list status %d", sh, resp.StatusCode)
				return
			}
			pages[i].err = json.NewDecoder(resp.Body).Decode(&pages[i].page)
		}(i, sh)
	}
	wg.Wait()

	var merged []httpapi.SessionSummary
	truncated := false
	for _, p := range pages {
		if p.err != nil {
			httpapi.WriteError(w, http.StatusBadGateway, httpapi.CodeUpstreamUnreachable, p.err)
			return
		}
		merged = append(merged, p.page.Sessions...)
		if p.page.NextPageToken != "" {
			truncated = true
		}
	}
	sort.Slice(merged, func(a, b int) bool { return merged[a].ID < merged[b].ID })
	out := httpapi.ListResponse{Sessions: merged}
	if out.Sessions == nil {
		out.Sessions = []httpapi.SessionSummary{}
	}
	if len(merged) > limit {
		out.Sessions = merged[:limit]
		truncated = true
	}
	if truncated && len(out.Sessions) > 0 {
		out.NextPageToken = out.Sessions[len(out.Sessions)-1].ID
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(out)
}

// handleHealthz reports 200 only when every shard's /healthz answers 200,
// with a per-shard breakdown either way. Each member also reports its
// breaker-derived state — healthy, degraded (accumulating failures),
// half-open, or open-breaker — and, when failed over, which member now
// serves its ids; partial outages are diagnosable from this body alone,
// without scraping metrics.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Shard      string `json:"shard"`
		OK         bool   `json:"ok"`
		State      string `json:"state,omitempty"`
		FailoverTo string `json:"failover_to,omitempty"`
	}
	out := make([]health, len(rt.shards))
	allOK := true
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(i int, sh string) {
			defer wg.Done()
			out[i].Shard = sh
			resp, err := rt.get(r.Context(), sh+"/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				out[i].OK = resp.StatusCode == http.StatusOK
			}
		}(i, sh)
	}
	wg.Wait()
	table := rt.table.Load()
	for i, sh := range rt.shards {
		switch state, fails := rt.breakers[sh].snapshot(); {
		case state == breakerOpen:
			out[i].State = "open-breaker"
		case state == breakerHalfOpen:
			out[i].State = "half-open"
		case fails > 0:
			out[i].State = "degraded"
		default:
			out[i].State = "healthy"
		}
		if m := table.ServingHome(sh); m != sh {
			out[i].FailoverTo = m
		}
	}
	for _, h := range out {
		if !h.OK {
			allOK = false
		}
	}
	status := http.StatusOK
	if !allOK {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"ok": allOK, "shards": out})
}

// promFamily is one metric family reassembled during the merge: its
// HELP/TYPE preamble and its sample lines, each already tagged with the
// originating shard.
type promFamily struct {
	preamble []string
	samples  []string
}

// handleMetrics merges every shard's /metrics into one exposition page:
// each sample line gains a shard="<url>" label, families keep one
// HELP/TYPE preamble (first shard's wins — they are identical by
// construction), and the router's own metrics lead the page.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	fams := make(map[string]*promFamily)
	var order []string

	type fetched struct {
		shard string
		body  string
		err   error
	}
	results := make([]fetched, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(i int, sh string) {
			defer wg.Done()
			results[i].shard = sh
			resp, err := rt.get(r.Context(), sh+"/metrics")
			if err != nil {
				rt.upErrs[sh].Inc()
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				results[i].err = err
				return
			}
			results[i].body = string(raw)
		}(i, sh)
	}
	wg.Wait()

	for _, res := range results {
		if res.err != nil {
			continue // the shard's absence shows in miras_router_upstream_errors_total
		}
		current := ""
		for _, line := range strings.Split(res.body, "\n") {
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "# ") {
				// "# HELP name …" / "# TYPE name type"
				parts := strings.SplitN(line, " ", 4)
				if len(parts) < 3 {
					continue
				}
				name := parts[2]
				f, ok := fams[name]
				if !ok {
					f = &promFamily{}
					fams[name] = f
					order = append(order, name)
				}
				if parts[1] == "TYPE" {
					current = name
				}
				if len(f.samples) == 0 && !containsLine(f.preamble, line) {
					f.preamble = append(f.preamble, line)
				}
				continue
			}
			if current == "" {
				continue
			}
			fams[current].samples = append(fams[current].samples,
				injectShardLabel(line, res.shard))
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.reg.WritePrometheus(w)
	sort.Strings(order)
	var b strings.Builder
	for _, name := range order {
		f := fams[name]
		for _, p := range f.preamble {
			b.WriteString(p)
			b.WriteByte('\n')
		}
		for _, s := range f.samples {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	_, _ = io.WriteString(w, b.String())
}

func containsLine(lines []string, line string) bool {
	for _, l := range lines {
		if l == line {
			return true
		}
	}
	return false
}

// injectShardLabel rewrites one exposition sample line so its label set
// leads with shard="<addr>". Sample lines are either `name value` or
// `name{labels} value`.
func injectShardLabel(line, shard string) string {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if space < 0 {
		return line // not a sample line; pass through
	}
	label := `shard="` + shard + `"`
	if brace >= 0 && brace < space {
		return line[:brace+1] + label + "," + line[brace+1:]
	}
	return line[:space] + "{" + label + "}" + line[space:]
}
