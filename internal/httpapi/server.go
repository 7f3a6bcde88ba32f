// Package httpapi exposes the emulated microservice workflow environment
// over HTTP so agents written in any language can train against it — the
// gym-server pattern. Sessions are independent environments; each step
// applies an allocation for one control window and returns the paper's
// observables (WIP state, Eq. 1 reward, window statistics). Sessions can be
// made failure-aware and fault plans can be armed against them, so remote
// agents train under the same chaos regimes the native experiments use.
//
// # Endpoints
//
// All request/response bodies are JSON:
//
//	GET    /v1/ensembles              list built-in ensembles ([]EnsembleInfo)
//	POST   /v1/sessions               create a session (CreateRequest → SessionInfo)
//	GET    /v1/sessions               list sessions, paginated (limit, page_token → ListResponse)
//	GET    /v1/sessions/{id}          session info (SessionInfo)
//	POST   /v1/sessions/{id}/step     apply an allocation, advance a window (StepRequest → StepResponse)
//	POST   /v1/sessions/{id}/reset    clear WIP ({"state": […]})
//	POST   /v1/sessions/{id}/burst    inject a request burst (BurstRequest → {"state": […]})
//	POST   /v1/sessions/{id}/faults   arm a fault plan (faults.Plan → SessionInfo)
//	POST   /v1/sessions/{id}/policy   attach a serving policy (rl.PolicySnapshot → SessionInfo)
//	GET    /v1/sessions/{id}/snapshot export replayable session state (SessionSnapshot)
//	POST   /v1/sessions/{id}/restore  rebuild the session from a snapshot (SessionSnapshot → SessionInfo)
//	DELETE /v1/sessions/{id}          destroy a session (204)
//	POST   /v1/admin/drain            spill every session to the spill store and evict it (DrainResponse)
//	POST   /v1/admin/rehydrate        adopt every spilled session from the spill store (RehydrateResponse)
//
// # Errors
//
// Every non-2xx response carries the uniform envelope
//
//	{"error": {"code": "<stable code>", "message": "<human detail>"}}
//
// with one of the stable ErrorCode values, each answered with the status
// codec.go's table gives it. Clients branch on code; messages may change
// (except as pinned by the golden envelope test).
//
// # Sharding
//
// Which process serves a session id is decided by one shardring.Table
// (WithShardTopology); inside the process every session lives in one
// registry. A request for an id the table does not let this process accept
// is refused with HTTP 421 wrong_shard, naming the id's home so routers and
// clients can follow. Every session id is minted by the process that
// creates the session (POST /v1/sessions takes no id): it walks the shared
// "s" sequence, skipping ids homed elsewhere, ids live here and ids with a
// spill store, so processes mint disjoint ids without coordination and a
// restarted process never re-mints an id it left in the spill directory.
// `miras route` only picks which member gets a create.
//
// # Session lifecycle
//
// CreateRequest.TTLSeconds bounds a session's wall-clock lifetime and
// IdleTimeoutSeconds bounds the gap between requests; an expired session is
// evicted lazily on access and by Server.SweepExpired (`miras serve` runs a
// sweeper goroutine). The ids of the process's last 8192 evictions are
// remembered in one tombstone ring and answer 410 session_expired,
// distinguishing "expired" from "never existed". When a spill store is
// configured (WithSpillDir), eviction writes the session's SessionSnapshot
// to a crash-safe checkpoint store; POST /v1/admin/drain spills and evicts
// every session so the process can be retired, and POST /v1/admin/rehydrate
// on another process sharing the directory rebuilds them byte-identically
// through the restore path.
//
// # Self-healing serving
//
// A step request that omits the allocation is decided by the session's
// attached policy, or by the HPA baseline while a misbehaving policy is
// sidelined (session.go lists the transitions); SessionInfo reports
// has_policy and degraded.
//
// # Fault injection
//
// POST /v1/sessions/{id}/faults takes a faults.Plan — {"specs": [Spec…]} —
// validated against the session's ensemble and armed relative to the
// session's current virtual time. Plans compose across calls. A session
// created with "failure_aware": true widens its state vector to
// [WIP | effective capacity] (StateDim = 2·ActionDim); allocations keep the
// per-microservice arity (ActionDim).
package httpapi

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"miras/internal/faults"
	"miras/internal/obs"
	"miras/internal/rl"
	"miras/internal/shardring"
	"miras/internal/workflow"
)

// DeadlineHeader carries the caller's remaining request budget in whole
// milliseconds. `miras route` recomputes it per upstream attempt; a server
// seeing it bounds the handler with a context deadline and answers 504
// deadline_exceeded once the budget is spent, so work the client has
// already abandoned is not finished on its behalf.
const DeadlineHeader = "X-Miras-Deadline-Ms"

// FailoverHeader names the dead shard-process a request was re-routed away
// from: the wire form of a routing-table reassignment row. `miras route`
// sets it on every attempt that leaves the id's ring home; the fallback
// accepts ids homed on the named member instead of answering 421
// wrong_shard (shardring.Table.Accepts).
const FailoverHeader = "X-Miras-Failover-From"

// IdempotencyKeyHeader names a step POST, so that a retry of it is answered
// and not applied again: a step repeating the key of a session's last
// successful step gets that step's bytes back (see the session core's record).
// `miras route` mints a key for every step that arrives without one, so
// every routed step may be retried. A step is therefore applied exactly once
// for a client that waits for each step's answer before sending the next;
// two clients stepping one session at once get at-least-once. Keys longer
// than 128 bytes are refused with 400 bad_request.
const IdempotencyKeyHeader = "X-Miras-Idempotency-Key"

// Server is the HTTP handler. It is safe for concurrent use: resolving a
// session id reads the registry without a lock (only inserts, deletes and
// misses take the registry mutex), and each session carries its own lock
// serialising its emulated system (the discrete-event engine is not
// concurrent). Requests against different sessions therefore proceed fully
// in parallel — the serving hot path never touches a server-wide mutex.
type Server struct {
	registry registry

	// table, when non-nil, is the fleet routing table this process
	// consults and self its own member name (see WithShardTopology).
	table *shardring.Table
	self  string

	// nextID is the shared mint sequence for session ids ("s1", "s2", …).
	// With a routing table every process walks the same sequence and keeps
	// only the ids it owns, so processes never collide.
	nextID atomic.Int64
	// live counts sessions, including admissions still building; the
	// session bound is enforced with a reserve-then-rollback on this
	// counter, not a lock.
	live atomic.Int64

	// maxSessions bounds live sessions (default 64).
	maxSessions int

	// now is the server's clock (default time.Now); tests inject a fake to
	// drive TTL and idle eviction deterministically.
	now func() time.Time

	// spillDir, when set, receives evicted sessions' snapshots in per-id
	// crash-safe checkpoint stores (see WithSpillDir); spillSeq numbers the
	// spill writes monotonically.
	spillDir string
	spillSeq atomic.Int64
	durable  bool // see WithDurableSessions

	// policies interns every policy this server attaches, restores or
	// rehydrates, so sessions sent the same policy share one copy.
	policies policyTable

	// reg collects server metrics: per-endpoint request counters and
	// latency histograms (added by instrument) plus per-session env/cluster
	// gauges, the live-session gauge, and fault counters. Scrape it via
	// Registry().Handler() or obs.MountDebug.
	reg *obs.Registry
	// tracer, when set, emits one root span per request — joining an
	// incoming W3C traceparent header when present — with child spans for
	// the session work (decide / step / restore). The response carries a
	// traceparent header so clients can correlate. The tracer's ring, if
	// any, is mounted at GET /v1/debug/traces, and its profiler captures a
	// pprof profile whenever a session degrades to the HPA fallback (an
	// anomaly worth a flight recording).
	tracer       *obs.Tracer
	windowsTotal *obs.Counter
	spillErrors  *obs.Counter

	// maxBodyBytes caps request-body size: 64 MiB, big enough for a full
	// policy snapshot, small enough to bound memory per request. Oversized
	// bodies are rejected with 413 body_too_large.
	maxBodyBytes int64
}

// Option configures a Server at construction.
type Option func(*Server)

// WithMaxSessions bounds the number of live sessions (default 64).
func WithMaxSessions(n int) Option {
	return func(s *Server) { s.maxSessions = n }
}

// WithShardTopology declares the multi-process shard ring this server
// participates in: members lists every shard process's advertised address
// (the strings routers and clients dial) and self names this process's own
// entry. Requests for session ids the resulting routing table does not let
// this process accept are refused with 421 wrong_shard naming the id's
// home. NewServer panics if self is not a member or the member list is
// invalid — a misconfigured topology must not serve.
func WithShardTopology(self string, members []string) Option {
	return func(s *Server) {
		table, err := shardring.NewTable(members)
		if err != nil {
			panic("httpapi: shard topology: " + err.Error())
		}
		if table.ServingHome(self) == "" {
			panic(fmt.Sprintf("httpapi: shard topology: self %q is not a member of %v",
				self, members))
		}
		s.table, s.self = table, self
	}
}

// WithClock overrides the server's wall clock (default time.Now). Session
// TTL and idle eviction are measured against this clock, so tests can march
// time forward deterministically.
func WithClock(now func() time.Time) Option {
	return func(s *Server) { s.now = now }
}

// WithSpillDir enables eviction spill: every evicted or drained session's
// SessionSnapshot is written to a crash-safe checkpoint store under
// dir/<session id>/, from which POST /v1/admin/rehydrate (on this process
// or any process sharing the directory) rebuilds the session through the
// restore path. Empty disables spill.
func WithSpillDir(dir string) Option {
	return func(s *Server) { s.spillDir = dir }
}

// WithDurableSessions makes the spill store the live sessions' crash copy,
// for a caller that runs SpillAll periodically: a created session is
// spilled before POST /v1/sessions answers 201 (a failed write answers 500
// and creates nothing), and a rehydrated session keeps the store it was
// loaded from. A process that dies between SpillAll passes then loses at
// most the steps since the last pass, never a session a client was told
// exists. `miras serve -spill-sync-interval` sets it. Needs WithSpillDir.
func WithDurableSessions() Option {
	return func(s *Server) { s.durable = true }
}

// WithTracer emits request-scoped spans: a root span per request (joining
// an incoming traceparent) plus children for decide/step/restore, tagged
// with the session id so DELETE can evict them from the tracer's ring. The
// tracer's profiler, if any, captures an anomaly profile when a session's
// policy fails and the session degrades to the HPA fallback. Use a
// wall-clock tracer here, not a sim-time one — requests are real events;
// session environments themselves stay untraced.
func WithTracer(tr *obs.Tracer) Option {
	return func(s *Server) { s.tracer = tr }
}

// NewServer returns an empty server with a fresh metrics registry. With no
// options it allows 64 concurrent sessions.
func NewServer(opts ...Option) *Server {
	s := &Server{
		maxSessions:  64,
		maxBodyBytes: 64 << 20,
		now:          time.Now,
		reg:          obs.NewRegistry(),
	}
	for _, o := range opts {
		o(s)
	}
	s.reg.GaugeFunc("miras_sessions_live", "Live environment sessions.",
		func() float64 { return float64(s.live.Load()) })
	s.windowsTotal = s.reg.Counter("miras_env_windows_total",
		"Control windows stepped, across all sessions.")
	s.spillErrors = s.reg.Counter("miras_spill_errors_total",
		"Eviction spill writes that failed.")
	return s
}

// Registry exposes the server's metric registry so callers can mount
// /metrics (see obs.MountDebug) or register extra process metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the routed http.Handler. Every endpoint is wrapped with
// request-count and latency instrumentation. The per-session paths are cut
// by SessionPath and dispatched on (method, op) without a ServeMux pattern;
// every other path, and a session path the mux would clean first, goes to
// the mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /v1/ensembles", s.instrument("ensembles", s.handleEnsembles))
	mux.Handle("POST /v1/sessions", s.instrument("create", s.handleCreate))
	mux.Handle("GET /v1/sessions", s.instrument("list", s.handleList))
	mux.Handle("POST /v1/admin/drain", s.instrument("drain", s.handleDrain))
	mux.Handle("POST /v1/admin/rehydrate", s.instrument("rehydrate", s.handleRehydrate))
	if ring := s.tracer.Ring(); ring != nil {
		mux.Handle("GET /v1/debug/traces", ring.Handler())
	}
	routes := map[string]sessionRoute{
		"": {allow: "DELETE, GET, HEAD",
			get: s.instrument("info", s.handleInfo), del: s.instrument("delete", s.handleDelete)},
		"step":     {allow: "POST", post: s.instrument("step", s.handleStep)},
		"reset":    {allow: "POST", post: s.instrument("reset", s.handleReset)},
		"burst":    {allow: "POST", post: s.instrument("burst", s.handleBurst)},
		"faults":   {allow: "POST", post: s.instrument("faults", s.handleFaults)},
		"policy":   {allow: "POST", post: s.instrument("policy", s.handlePolicy)},
		"snapshot": {allow: "GET, HEAD", get: s.instrument("snapshot", s.handleSnapshot)},
		"restore":  {allow: "POST", post: s.instrument("restore", s.handleRestore)},
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, op, ok := SessionPath(r)
		if !ok {
			mux.ServeHTTP(w, r)
			return
		}
		route, known := routes[op]
		if !known {
			http.NotFound(w, r)
			return
		}
		route.serve(w, r, id)
	})
}

// sessionsPrefix begins every per-session path.
const sessionsPrefix = "/v1/sessions/"

// SessionPath cuts a /v1/sessions/{id} or /v1/sessions/{id}/{op} request
// into its id and op ("" for the first shape), unescaping each segment of
// the escaped path as http.ServeMux does. ok is false for every other path,
// and for one the mux would clean before matching (an empty, "." or ".."
// segment) so that the mux still answers it with its redirect or 404. The
// mux does not clean a CONNECT request's path, so there only an empty last
// segment is refused.
func SessionPath(r *http.Request) (id, op string, ok bool) {
	rest, found := strings.CutPrefix(r.URL.EscapedPath(), sessionsPrefix)
	if !found {
		return "", "", false
	}
	if rest == "" || strings.HasSuffix(rest, "/") {
		return "", "", false // a trailing slash, which no session path has
	}
	idSeg, opSeg, hasOp := strings.Cut(rest, "/")
	if strings.Contains(opSeg, "/") {
		return "", "", false
	}
	if r.Method != http.MethodConnect && (cleanable(idSeg) || hasOp && cleanable(opSeg)) {
		return "", "", false
	}
	return pathUnescape(idSeg), pathUnescape(opSeg), true
}

// cleanable reports whether a path segment is one http.ServeMux's path
// cleaning removes or resolves.
func cleanable(seg string) bool { return seg == "" || seg == "." || seg == ".." }

// pathUnescape unescapes one path segment, keeping a malformed one as it
// is, as http.ServeMux does.
func pathUnescape(seg string) string {
	if u, err := url.PathUnescape(seg); err == nil {
		return u
	}
	return seg
}

// endpoint is an instrumented handler; id is the session id its path names,
// "" for a path that names none.
type endpoint func(w http.ResponseWriter, r *http.Request, id string)

// ServeHTTP serves a path that names no session.
func (h endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) { h(w, r, "") }

// sessionRoute is one per-session path shape: its endpoint for each method
// it serves (get also serves HEAD) and, for any other method, the Allow
// header of the 405 answer, listed as http.ServeMux lists it.
type sessionRoute struct {
	allow          string
	get, post, del endpoint
}

func (rt sessionRoute) serve(w http.ResponseWriter, r *http.Request, id string) {
	var h endpoint
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		h = rt.get
	case http.MethodPost:
		h = rt.post
	case http.MethodDelete:
		h = rt.del
	}
	if h == nil {
		w.Header().Set("Allow", rt.allow)
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
		return
	}
	h(w, r, id)
}

// instrument wraps h with a per-endpoint request counter, error counter,
// latency histogram and span, caps the request body (decodeBody turns the
// cap's *http.MaxBytesError into 413 body_too_large) and runs h under the
// request's bound (serveBounded), so a request the bound refuses or cuts
// short is counted with the status its client received.
func (s *Server) instrument(endpoint string, h endpoint) endpoint {
	reqs := s.reg.Counter("miras_http_requests_total",
		"HTTP requests served, by endpoint.", "endpoint", endpoint)
	errs := s.reg.Counter("miras_http_errors_total",
		"HTTP responses with status >= 400, by endpoint.", "endpoint", endpoint)
	dur := s.reg.Histogram("miras_http_request_duration_seconds",
		"HTTP request latency, by endpoint.", nil, "endpoint", endpoint)
	spanName := "http." + endpoint
	return func(w http.ResponseWriter, r *http.Request, id string) {
		start := time.Now()
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		var span *obs.Span
		if s.tracer != nil {
			span = s.tracer.StartRemote(spanName, r.Header.Get("traceparent")).
				Str("endpoint", endpoint)
			// The response header must land before the handler writes the
			// status line; spans carry ids from birth, so this is safe.
			sw.Header().Set("traceparent", span.Traceparent())
			r = r.WithContext(obs.ContextWithSpan(r.Context(), span))
		}
		running := serveBounded(sw, r, id, h)
		if running == nil {
			span.Int("status", sw.status).End()
		} else if span != nil {
			// End recycles the span, and the abandoned handler may still
			// open children of it: end it once the handler returns.
			status := sw.status
			go func() {
				<-running
				span.Int("status", status).End()
			}()
		}
		reqs.Inc()
		if sw.status >= 400 {
			errs.Inc()
		}
		dur.Observe(time.Since(start).Seconds())
	}
}

// statusWriter captures the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// --- wire types ---

// EnsembleInfo describes one built-in ensemble.
type EnsembleInfo struct {
	Name      string   `json:"name"`
	Tasks     []string `json:"tasks"`
	Workflows []string `json:"workflows"`
}

// CreateRequest configures a new session.
type CreateRequest struct {
	// Ensemble is "msd", "ligo", or "toy". Required.
	Ensemble string `json:"ensemble"`
	// Budget is the consumer constraint C. Required, positive.
	Budget int `json:"budget"`
	// WindowSec is the control window (default 30).
	WindowSec float64 `json:"window_sec,omitempty"`
	// Seed drives all randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Rates are per-workflow Poisson rates; defaults to the ensemble's
	// standard background load.
	Rates []float64 `json:"rates,omitempty"`
	// TTLSeconds bounds the session's wall-clock lifetime: once exceeded
	// the session is evicted (410 session_expired on later access). Zero
	// means no lifetime bound.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
	// IdleTimeoutSeconds bounds the wall-clock gap between requests that
	// touch the session; an idle session is evicted. Zero means no idle
	// bound.
	IdleTimeoutSeconds float64 `json:"idle_timeout_seconds,omitempty"`
	// FailureAware widens the state vector to [WIP | effective capacity],
	// exposing fault degradation to the agent (StateDim = 2·ActionDim).
	FailureAware bool `json:"failure_aware,omitempty"`
	// Faults, when present, is armed at session creation (virtual t = 0),
	// equivalent to an immediate POST …/faults.
	Faults *faults.Plan `json:"faults,omitempty"`
}

// SessionInfo describes a live session, including its failure surface:
// live consumers, cumulative crash/loss counters, and active faults.
type SessionInfo struct {
	ID        string  `json:"id"`
	Ensemble  string  `json:"ensemble"`
	StateDim  int     `json:"state_dim"`
	ActionDim int     `json:"action_dim"`
	Budget    int     `json:"budget"`
	WindowSec float64 `json:"window_sec"`
	Windows   int     `json:"windows"`
	// TTLSeconds and IdleTimeoutSeconds echo the create request's
	// lifecycle bounds (0 = unbounded).
	TTLSeconds         float64 `json:"ttl_seconds,omitempty"`
	IdleTimeoutSeconds float64 `json:"idle_timeout_seconds,omitempty"`
	// FailureAware echoes the create flag.
	FailureAware bool      `json:"failure_aware"`
	State        []float64 `json:"state"`
	// Consumers is the per-microservice live (started) consumer count.
	Consumers []int `json:"consumers"`
	// Crashed, Redelivered, and Dropped are cumulative failure counters:
	// consumers killed, requests requeued by the ack mechanism, and
	// workflow instances lost to queue-drop episodes.
	Crashed     uint64 `json:"crashed"`
	Redelivered uint64 `json:"redelivered"`
	Dropped     uint64 `json:"dropped"`
	// FaultSpecs counts fault specs armed over the session's lifetime;
	// ActiveFaults lists the ones currently live.
	FaultSpecs   int                  `json:"fault_specs"`
	ActiveFaults []faults.ActiveFault `json:"active_faults,omitempty"`
	// HasPolicy reports whether a serving policy is attached; Degraded is
	// true while the session has fallen back to the HPA baseline after a
	// policy failure.
	HasPolicy bool `json:"has_policy"`
	Degraded  bool `json:"degraded"`
}

// StepRequest applies one allocation. When Allocation is omitted the
// session's attached policy decides (auto-step); if the policy misbehaves
// the session degrades to the HPA baseline until the policy passes
// health probes again.
type StepRequest struct {
	// Allocation is m(k): consumers per microservice, Σ ≤ budget. Omit it
	// to let the attached policy allocate.
	Allocation []int `json:"allocation"`
}

// StepResponse reports one window's outcome. Allocation and Controller
// are set on auto-steps: the applied allocation and which controller
// ("policy" or "hpa") produced it.
type StepResponse struct {
	State          []float64 `json:"state"`
	Reward         float64   `json:"reward"`
	Window         int       `json:"window"`
	Consumers      []int     `json:"consumers"`
	ArrivalRate    []float64 `json:"arrival_rate"`
	CompletionRate []float64 `json:"completion_rate"`
	Utilization    []float64 `json:"utilization"`
	Completed      int       `json:"completed"`
	MeanDelaySec   float64   `json:"mean_delay_sec"`
	Allocation     []int     `json:"allocation,omitempty"`
	Controller     string    `json:"controller,omitempty"`
}

// BurstRequest injects requests.
type BurstRequest struct {
	// Counts is the number of requests per workflow type.
	Counts []int `json:"counts"`
}

// --- handlers ---

func (s *Server) handleEnsembles(w http.ResponseWriter, _ *http.Request, _ string) {
	var out []EnsembleInfo
	for _, name := range []string{"msd", "ligo", "toy"} {
		e, _ := workflow.ByName(name)
		out = append(out, EnsembleInfo{
			Name:      name,
			Tasks:     e.TaskNames(),
			Workflows: e.WorkflowNames(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// withSession is every per-session endpoint after its decode: resolve id,
// run act under the session lock, answer a non-nil result 200 as JSON (or
// act writes its own), and any error (decodeErr first) from the table.
func (s *Server) withSession(w http.ResponseWriter, r *http.Request, id, endpoint string,
	decodeErr error, act func(*session) (any, error)) {
	err := decodeErr
	if err == nil {
		var sess *session
		if sess, err = s.lookup(r, id); err == nil {
			sess.mu.Lock()
			defer sess.mu.Unlock()
			var v any
			if v, err = act(sess); err == nil && v != nil {
				writeJSON(w, http.StatusOK, v)
			}
		}
	}
	if err != nil {
		fail(w, endpoint, err)
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request, _ string) {
	var req CreateRequest
	var sess *session
	err := decodeBody(r, &req)
	if err == nil {
		sess, err = s.admit(s.mintID(), func() (*session, error) { return newSession(req) })
	}
	if err == nil && s.durable && s.spillDir != "" {
		if _, err = s.spill(sess, false); err != nil {
			s.remove(sess.id, sess, "")
			s.removeSpill(sess.id)
			err = coded(CodeInternal, fmt.Errorf("spill session %q: %w", sess.id, err))
		}
	}
	if err != nil {
		fail(w, "create", err)
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	writeJSON(w, http.StatusCreated, sess.Info())
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request, id string) {
	s.withSession(w, r, id, "info", nil, func(sess *session) (any, error) { return sess.Info(), nil })
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request, id string) {
	key := r.Header.Get(IdempotencyKeyHeader)
	var req StepRequest
	err := decodeBody(r, &req)
	if len(key) > maxIdempotencyKeyBytes {
		err = coded(CodeBadRequest, fmt.Errorf("%s is %d bytes, over the %d-byte limit",
			IdempotencyKeyHeader, len(key), maxIdempotencyKeyBytes))
	}
	s.withSession(w, r, id, "step", err, func(sess *session) (any, error) {
		body, err := sess.Step(r.Context(), req.Allocation, key)
		if err == nil {
			writeRawJSON(w, http.StatusOK, body)
		}
		return nil, err
	})
}

func (s *Server) handleReset(w http.ResponseWriter, r *http.Request, id string) {
	s.withSession(w, r, id, "reset", nil, func(sess *session) (any, error) {
		return map[string][]float64{"state": sess.Reset()}, nil
	})
}

func (s *Server) handleBurst(w http.ResponseWriter, r *http.Request, id string) {
	var req BurstRequest
	s.withSession(w, r, id, "burst", decodeBody(r, &req), func(sess *session) (any, error) {
		state, err := sess.Burst(req.Counts)
		return map[string][]float64{"state": state}, err
	})
}

func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request, id string) {
	var plan faults.Plan
	s.withSession(w, r, id, "faults", decodeBody(r, &plan), func(sess *session) (any, error) {
		return sess.ArmFaults(plan)
	})
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request, id string) {
	// Sizing the buffer from Content-Length (within the body cap) reads a
	// multi-megabyte policy without a chain of growing copies.
	body := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), s.maxBodyBytes)+bytes.MinRead))
	var snap *rl.PolicySnapshot
	_, err := body.ReadFrom(r.Body)
	if err != nil {
		err = bodyError(err)
	} else if snap, err = s.policies.intern(body.Bytes()); err != nil {
		err = coded(CodeBadRequest, err)
	}
	s.withSession(w, r, id, "policy", err, func(sess *session) (any, error) {
		return sess.AttachPolicy(snap)
	})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, id string) {
	s.withSession(w, r, id, "snapshot", nil, func(sess *session) (any, error) { return sess.Snapshot(), nil })
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request, id string) {
	var in snapshotJSON
	var snap SessionSnapshot
	err := decodeBody(r, &in)
	if err == nil {
		snap, err = s.policies.snapshot(in)
	}
	s.withSession(w, r, id, "restore", err, func(sess *session) (any, error) {
		span := obs.SpanFromContext(r.Context()).Child("session.restore").
			Str("session", sess.id).Int("ops", len(snap.Ops))
		defer span.End()
		built, err := buildFromSnapshot(snap)
		if err != nil {
			return nil, err
		}
		return sess.Restore(built), nil
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, id string) {
	if !s.remove(id, nil, "") {
		fail(w, "delete", s.miss(r, id))
		return
	}
	// A deleted session must stay deleted: drop any spilled snapshot so a
	// later rehydrate (failover or restart) cannot resurrect it.
	s.removeSpill(id)
	w.WriteHeader(http.StatusNoContent)
}

// SessionCount returns the number of live sessions.
func (s *Server) SessionCount() int {
	return int(s.live.Load())
}
