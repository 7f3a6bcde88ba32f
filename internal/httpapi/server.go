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
// with one of the stable codes: bad_request, unknown_ensemble,
// bad_session_config, session_limit, session_not_found, session_expired,
// wrong_shard, bad_allocation, bad_burst, bad_fault_plan, bad_policy,
// bad_snapshot, body_too_large, request_timeout, deadline_exceeded.
// Clients branch on code; messages may change (except as pinned by the
// golden envelope test).
//
// # Sharding
//
// The session registry is split into N in-process shards (WithShards), each
// with its own lock and map; a session id's shard is picked by consistent
// hashing (internal/shardring), so requests against unrelated sessions
// never touch the same mutex — that is lock striping, not placement. Which
// *process* serves an id is decided by one shardring.Table
// (WithShardTopology): a request for an id the table does not let this
// process accept is refused with HTTP 421 wrong_shard, naming the id's home
// so routers and clients can follow. POST /v1/sessions accepts a pre-minted
// id via the X-Miras-Session-Id header (set by `miras route`); without it
// the process mints ids from the shared sequence, skipping ids homed
// elsewhere.
//
// # Session lifecycle
//
// CreateRequest.TTLSeconds bounds a session's wall-clock lifetime and
// IdleTimeoutSeconds bounds the gap between requests; an expired session is
// evicted lazily on access and by Server.SweepExpired (`miras serve` runs a
// sweeper goroutine). Evicted ids are remembered in a per-shard tombstone
// ring and answer 410 session_expired, distinguishing "expired" from
// "never existed". When a spill store is configured (WithSpillDir),
// eviction writes the session's SessionSnapshot to a crash-safe
// checkpoint store; POST /v1/admin/drain spills and evicts every session
// so the process can be retired, and POST /v1/admin/rehydrate on another
// process sharing the directory rebuilds them byte-identically through the
// restore path.
//
// # Self-healing serving
//
// A session with an attached policy auto-allocates when a step request
// omits the allocation. If the policy misbehaves — panics, emits NaN/Inf
// or negative weights, or violates the budget — the session degrades to
// the HPA baseline controller (miras_controller_fallback_total) and keeps
// serving; the sidelined policy is shadow-probed each window and promoted
// back after passing consecutive health probes
// (miras_controller_recovered_total). SessionInfo reports has_policy and
// degraded.
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
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"miras/internal/baselines"
	"miras/internal/cluster"
	"miras/internal/env"
	"miras/internal/faults"
	"miras/internal/obs"
	"miras/internal/rl"
	"miras/internal/shardring"
	"miras/internal/sim"
	"miras/internal/workflow"
	"miras/internal/workload"
)

// SessionIDHeader carries a pre-minted session id on POST /v1/sessions.
// `miras route` mints the id, picks the owning shard process from its hash
// ring, and forwards the create with this header so the shard adopts the
// router's id instead of minting its own.
const SessionIDHeader = "X-Miras-Session-Id"

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

// IdempotencyKeyHeader marks a POST as safe to retry. The serving stack's
// POSTs are not idempotent in general (a step advances the environment), so
// `miras route` only retries POSTs that carry this header — the caller's
// declaration that a duplicate apply is acceptable or deduplicated.
const IdempotencyKeyHeader = "X-Miras-Idempotency-Key"

// Server is the HTTP handler. It is safe for concurrent use: the session
// registry is split across in-process shards, each guarding its own map
// with its own lock (reads take the shared side), and each session carries
// its own lock serialising its emulated system (the discrete-event engine
// is not concurrent). Requests against different sessions therefore
// proceed fully in parallel — the serving hot path never touches a
// server-wide mutex, and sessions on different shards never even share a
// registry lock.
type Server struct {
	// shards holds the in-process session shards; localRing maps a session
	// id to its shard. Both are immutable after NewServer.
	shards    []*shard
	localRing *shardring.Ring

	// table, when non-nil, is the fleet routing table this process
	// consults and self its own member name (see WithShardTopology).
	table *shardring.Table
	self  string

	// nextID is the shared mint sequence for session ids ("s1", "s2", …).
	// With a routing table every process walks the same sequence and keeps
	// only the ids it owns, so processes never collide.
	nextID atomic.Int64
	// live counts sessions across all shards; the total session bound is
	// enforced with a reserve-then-rollback on this counter, not a lock.
	live atomic.Int64

	// maxSessions bounds live sessions across all shards (default 64).
	maxSessions int
	// maxPerShard, when positive, additionally bounds each shard's live
	// sessions — a skew guard for hot shards (0 disables).
	maxPerShard int

	// now is the server's clock (default time.Now); tests inject a fake to
	// drive TTL and idle eviction deterministically.
	now func() time.Time

	// spillDir, when set, receives evicted sessions' snapshots in per-id
	// crash-safe checkpoint stores (see WithSpillDir); spillSeq numbers the
	// spill writes monotonically.
	spillDir string
	spillSeq atomic.Int64

	// reg collects server metrics: per-endpoint request counters and
	// latency histograms (added by instrument) plus per-session env/cluster
	// gauges, per-shard occupancy gauges, and fault counters. Scrape it via
	// Registry().Handler() or obs.MountDebug.
	reg *obs.Registry
	// rec, when set, receives every session's simulation events.
	rec *obs.Recorder
	// tracer, when set, emits one root span per request — joining an
	// incoming W3C traceparent header when present — with child spans for
	// the session work (decide / step / restore). The response carries a
	// traceparent header so clients can correlate. The tracer's ring, if
	// any, is mounted at GET /v1/debug/traces.
	tracer *obs.Tracer
	// profiler, when set, captures a pprof profile whenever a session
	// degrades to the HPA fallback (an anomaly worth a flight recording).
	profiler *obs.ProfileCapturer
	// tsRing, when set, is served at GET /v1/debug/timeseries (JSON) and
	// GET /debug/dash (HTML sparklines). The server does not sample into
	// it; run obs.TimeSeriesRing.Run against Registry() for that.
	tsRing       *obs.TimeSeriesRing
	sessionsLive *obs.Gauge
	windowsTotal *obs.Counter
	spillErrors  *obs.Counter

	// maxBodyBytes caps request-body size (default 64 MiB; ≤0 disables).
	maxBodyBytes int64
	// reqTimeout bounds handler execution (0 disables).
	reqTimeout time.Duration

	// optShards is the WithShards count, consumed by NewServer.
	optShards int
}

// Option configures a Server at construction.
type Option func(*Server)

// WithMaxSessions bounds the number of live sessions across all shards
// (default 64).
func WithMaxSessions(n int) Option {
	return func(s *Server) { s.maxSessions = n }
}

// WithMaxSessionsPerShard additionally bounds each in-process shard's live
// sessions — a guard against pathological key skew filling one shard's
// memory. Zero (the default) disables the per-shard bound.
func WithMaxSessionsPerShard(n int) Option {
	return func(s *Server) { s.maxPerShard = n }
}

// WithShards sets the in-process shard count (default 8, minimum 1). More
// shards mean less lock sharing between unrelated sessions; the count is
// fixed for the server's lifetime.
func WithShards(n int) Option {
	return func(s *Server) { s.optShards = n }
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

// WithRegistry uses reg for all server metrics instead of a fresh registry
// (so one registry can aggregate several subsystems).
func WithRegistry(reg *obs.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithRecorder routes every session's simulation events (window steps,
// consumer lifecycle, fault injections) to rec.
func WithRecorder(rec *obs.Recorder) Option {
	return func(s *Server) { s.rec = rec }
}

// WithTracer emits request-scoped spans: a root span per request (joining
// an incoming traceparent) plus children for decide/step/restore, tagged
// with the session id so DELETE can evict them from the tracer's ring.
// Use a wall-clock tracer here, not a sim-time one — requests are real
// events; session environments themselves stay untraced.
func WithTracer(tr *obs.Tracer) Option {
	return func(s *Server) { s.tracer = tr }
}

// WithProfiler captures an anomaly profile when a session's policy fails
// and the session degrades to the HPA fallback.
func WithProfiler(p *obs.ProfileCapturer) Option {
	return func(s *Server) { s.profiler = p }
}

// WithTimeSeries mounts ts at GET /v1/debug/timeseries and /debug/dash.
// The caller owns sampling (obs.TimeSeriesRing.Run over Registry()).
func WithTimeSeries(ts *obs.TimeSeriesRing) Option {
	return func(s *Server) { s.tsRing = ts }
}

// WithMaxBodyBytes caps request-body size; oversized bodies are rejected
// with 413 body_too_large. Zero or negative disables the cap (the default
// is 64 MiB — big enough for a full policy snapshot, small enough to
// bound memory per request).
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) { s.maxBodyBytes = n }
}

// WithRequestTimeout bounds each handler's execution; requests that run
// longer are answered 408 request_timeout. Zero disables the deadline.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.reqTimeout = d }
}

// session is one live environment. mu serialises every operation touching
// the session's state; handlers lock it after resolving the id through its
// shard's registry lock, so sessions never contend with each other.
type session struct {
	mu sync.Mutex

	id        string
	ensemble  string
	shardIdx  int
	env       *env.Env
	generator *workload.Generator
	windows   int

	// Lifecycle: createdAt is immutable after insert; lastAccess holds the
	// wall time (UnixNano) of the most recent request that resolved this
	// session, updated without the session lock so reads stay on the
	// registry's shared path. ttl and idle are the create request's bounds
	// (0 = unbounded).
	createdAt  time.Time
	lastAccess atomic.Int64
	ttl        time.Duration
	idle       time.Duration

	// create is the effective creation request (defaults applied); the
	// snapshot endpoint replays it to rebuild an equivalent session.
	create CreateRequest
	// ops logs every state-changing operation since creation, in order,
	// for snapshot/restore. It grows with session lifetime; long-lived
	// training sessions that never snapshot pay only the memory.
	ops []SessionOp

	// policy is the attached serving policy (nil until POST …/policy).
	policy *rl.PolicySnapshot
	// fallback is non-nil while the session is degraded to the HPA
	// baseline after a policy failure; healthyProbes counts consecutive
	// successful shadow probes of the sidelined policy.
	fallback      *baselines.HPA
	healthyProbes int
	// scratch is the preallocated decide working memory (see decideScratch);
	// nil until the first auto-step and after a policy change.
	scratch *decideScratch
	// prev is the last step result, feeding controller decisions.
	prev     env.StepResult
	havePrev bool

	// profiler (shared, server-owned, nil when disabled) records an
	// anomaly profile when this session falls back to HPA.
	profiler *obs.ProfileCapturer

	// Per-session metrics, removed from the registry on DELETE/eviction.
	wip            *obs.Gauge
	inflight       *obs.Gauge
	faultsTotal    *obs.Counter
	crashed        *obs.Counter
	fallbackTotal  *obs.Counter
	recoveredTotal *obs.Counter
}

// touch records an access at now for idle-timeout accounting.
func (sess *session) touch(now time.Time) { sess.lastAccess.Store(now.UnixNano()) }

// expired reports whether the session has outlived its TTL or idle bound
// at now, and which bound tripped ("ttl" or "idle").
func (sess *session) expired(now time.Time) (string, bool) {
	if sess.ttl > 0 && now.Sub(sess.createdAt) >= sess.ttl {
		return "ttl", true
	}
	if sess.idle > 0 && now.Sub(time.Unix(0, sess.lastAccess.Load())) >= sess.idle {
		return "idle", true
	}
	return "", false
}

// NewServer returns an empty server. With no options it uses a fresh
// metrics registry, 8 in-process shards, and allows 64 concurrent
// sessions.
func NewServer(opts ...Option) *Server {
	s := &Server{
		maxSessions:  64,
		maxBodyBytes: 64 << 20,
		now:          time.Now,
		optShards:    8,
	}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	if s.optShards < 1 {
		s.optShards = 1
	}
	members := make([]string, s.optShards)
	for i := range members {
		members[i] = "shard-" + strconv.Itoa(i)
	}
	ring, err := shardring.New(members, 0)
	if err != nil {
		panic("httpapi: local shard ring: " + err.Error())
	}
	s.localRing = ring
	s.shards = make([]*shard, s.optShards)
	for i := range s.shards {
		s.shards[i] = newShard(i, s.reg)
	}
	s.sessionsLive = s.reg.Gauge("miras_sessions_live",
		"Live environment sessions.")
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
// request-count and latency instrumentation.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /v1/ensembles", s.instrument("ensembles", s.handleEnsembles))
	mux.Handle("POST /v1/sessions", s.instrument("create", s.handleCreate))
	mux.Handle("GET /v1/sessions", s.instrument("list", s.handleList))
	mux.Handle("GET /v1/sessions/{id}", s.instrument("info", s.handleInfo))
	mux.Handle("POST /v1/sessions/{id}/step", s.instrument("step", s.handleStep))
	mux.Handle("POST /v1/sessions/{id}/reset", s.instrument("reset", s.handleReset))
	mux.Handle("POST /v1/sessions/{id}/burst", s.instrument("burst", s.handleBurst))
	mux.Handle("POST /v1/sessions/{id}/faults", s.instrument("faults", s.handleFaults))
	mux.Handle("POST /v1/sessions/{id}/policy", s.instrument("policy", s.handlePolicy))
	mux.Handle("GET /v1/sessions/{id}/snapshot", s.instrument("snapshot", s.handleSnapshot))
	mux.Handle("POST /v1/sessions/{id}/restore", s.instrument("restore", s.handleRestore))
	mux.Handle("DELETE /v1/sessions/{id}", s.instrument("delete", s.handleDelete))
	mux.Handle("POST /v1/admin/drain", s.instrument("drain", s.handleDrain))
	mux.Handle("POST /v1/admin/rehydrate", s.instrument("rehydrate", s.handleRehydrate))
	if ring := s.tracer.Ring(); ring != nil {
		mux.Handle("GET /v1/debug/traces", ring.Handler())
	}
	if s.tsRing != nil {
		mux.Handle("GET /v1/debug/timeseries", s.tsRing.Handler())
		mux.Handle("GET /debug/dash", s.tsRing.DashHandler())
	}
	var h http.Handler = mux
	if s.maxBodyBytes > 0 {
		h = maxBodyMiddleware(s.maxBodyBytes, h)
	}
	return boundMiddleware(s.reqTimeout, h)
}

// instrument wraps h with a per-endpoint request counter, error counter,
// and latency histogram.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	reqs := s.reg.Counter("miras_http_requests_total",
		"HTTP requests served, by endpoint.", "endpoint", endpoint)
	errs := s.reg.Counter("miras_http_errors_total",
		"HTTP responses with status >= 400, by endpoint.", "endpoint", endpoint)
	dur := s.reg.Histogram("miras_http_request_duration_seconds",
		"HTTP request latency, by endpoint.", nil, "endpoint", endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		span := s.tracer.StartRemote("http."+endpoint, r.Header.Get("traceparent")).
			Str("endpoint", endpoint)
		if tp := span.Traceparent(); tp != "" {
			// The response header must land before the handler writes the
			// status line; spans carry ids from birth, so this is safe.
			sw.Header().Set("traceparent", tp)
			r = r.WithContext(obs.ContextWithSpan(r.Context(), span))
		}
		h(sw, r)
		span.Int("status", sw.status).End()
		reqs.Inc()
		if sw.status >= 400 {
			errs.Inc()
		}
		dur.Observe(time.Since(start).Seconds())
	})
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
	Shard     int     `json:"shard"`
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

func (s *Server) handleEnsembles(w http.ResponseWriter, _ *http.Request) {
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

// buildSystem constructs the emulated system (engine, cluster, workload,
// env) for an effective create request. On failure it returns the error
// code the caller should report.
func (s *Server) buildSystem(req CreateRequest, faultsTotal, crashed *obs.Counter) (*env.Env, *workload.Generator, ErrorCode, error) {
	ens, ok := workflow.ByName(req.Ensemble)
	if !ok {
		return nil, nil, CodeUnknownEnsemble, fmt.Errorf("unknown ensemble %q", req.Ensemble)
	}
	if req.TTLSeconds < 0 {
		return nil, nil, CodeBadSessionConfig,
			fmt.Errorf("ttl_seconds must be non-negative, got %g", req.TTLSeconds)
	}
	if req.IdleTimeoutSeconds < 0 {
		return nil, nil, CodeBadSessionConfig,
			fmt.Errorf("idle_timeout_seconds must be non-negative, got %g", req.IdleTimeoutSeconds)
	}
	engine := sim.NewEngine()
	streams := sim.NewStreams(req.Seed)
	copts := []cluster.Option{cluster.WithFaultMetrics(faultsTotal, crashed)}
	if req.Faults != nil {
		copts = append(copts, cluster.WithFaultPlan(*req.Faults))
	}
	c, err := cluster.New(cluster.Config{
		Ensemble: ens, Engine: engine, Streams: streams, Recorder: s.rec,
	}, copts...)
	if err != nil {
		code := CodeBadSessionConfig
		if req.Faults != nil && req.Faults.Validate(ens.NumTasks()) != nil {
			code = CodeBadFaultPlan
		}
		return nil, nil, code, err
	}
	rates := req.Rates
	if rates == nil {
		rates = workload.DefaultRates(ens)
	}
	gen, err := workload.NewGenerator(c, streams, engine, rates)
	if err != nil {
		return nil, nil, CodeBadSessionConfig, err
	}
	gen.Start()
	e, err := env.New(env.Config{
		Cluster:      c,
		Generator:    gen,
		Budget:       req.Budget,
		WindowSec:    req.WindowSec,
		Recorder:     s.rec,
		FailureAware: req.FailureAware,
	})
	if err != nil {
		return nil, nil, CodeBadSessionConfig, err
	}
	return e, gen, "", nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	// A router-minted id arrives in the header and must be one this process
	// accepts; without it admit mints from the shared sequence.
	id := r.Header.Get(SessionIDHeader)
	if id != "" {
		if err := validateID(id); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
		if !s.accepts(w, r, id) {
			return
		}
	}
	sess, code, err := s.admit(id, func(faultsTotal, crashed *obs.Counter) (*session, ErrorCode, error) {
		e, gen, code, err := s.buildSystem(req, faultsTotal, crashed)
		return &session{env: e, generator: gen, create: req}, code, err
	})
	if err != nil {
		status := http.StatusBadRequest
		if code == CodeSessionLimit {
			status = http.StatusTooManyRequests
		}
		writeError(w, status, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, sessionInfo(sess))
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	writeJSON(w, http.StatusOK, sessionInfo(sess))
}

// sessionInfo builds the wire view of a session. Callers hold the session
// lock.
func sessionInfo(sess *session) SessionInfo {
	c := sess.env.Cluster()
	v := c.FaultView()
	return SessionInfo{
		ID:                 sess.id,
		Ensemble:           sess.ensemble,
		Shard:              sess.shardIdx,
		StateDim:           sess.env.StateDim(),
		ActionDim:          sess.env.ActionDim(),
		Budget:             sess.env.Budget(),
		WindowSec:          sess.env.WindowSec(),
		Windows:            sess.windows,
		TTLSeconds:         sess.ttl.Seconds(),
		IdleTimeoutSeconds: sess.idle.Seconds(),
		FailureAware:       sess.env.FailureAware(),
		State:              sess.env.State(),
		Consumers:          v.Consumers,
		Crashed:            v.Crashed,
		Redelivered:        v.Redelivered,
		Dropped:            v.Dropped,
		FaultSpecs:         c.FaultSpecs(),
		ActiveFaults:       c.ActiveFaults(),
		HasPolicy:          sess.policy != nil,
		Degraded:           sess.fallback != nil,
	}
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	var req StepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	// The session lock can be a queue under contention; if the client's
	// deadline expired while waiting, abandon the step before doing the
	// simulation work (the bound middleware owns the timeout response).
	if err := r.Context().Err(); err != nil {
		writeError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded,
			fmt.Errorf("client deadline expired before the step ran"))
		return
	}
	root := obs.SpanFromContext(r.Context())
	alloc := req.Allocation
	controller := ""
	if alloc == nil {
		decideSpan := root.Child("session.decide").Str("session", sess.id)
		var err error
		alloc, controller, err = sess.decideAuto()
		decideSpan.Str("controller", controller).End()
		if err != nil {
			writeError(w, http.StatusConflict, CodeBadPolicy, err)
			return
		}
	}
	stepSpan := root.Child("session.step").Str("session", sess.id).
		Int("window", sess.windows)
	res, err := sess.env.Step(alloc)
	if err != nil {
		stepSpan.Bool("error", true).End()
		writeError(w, http.StatusUnprocessableEntity, CodeBadAllocation, err)
		return
	}
	stepSpan.F64("reward", res.Reward).End()
	sess.windows++
	sess.prev = res
	sess.havePrev = true
	// Auto-decided allocations alias the session's decide scratch, which the
	// next decision overwrites; the replay log needs its own copy.
	logged := alloc
	if controller != "" {
		logged = append([]int(nil), alloc...)
	}
	sess.ops = append(sess.ops, SessionOp{Kind: opKindStep, Alloc: logged})
	s.windowsTotal.Inc()
	sess.syncGauges()
	writeJSON(w, http.StatusOK, StepResponse{
		State:          res.State,
		Reward:         res.Reward,
		Window:         res.Stats.Window,
		Consumers:      res.Stats.Consumers,
		ArrivalRate:    res.Stats.ArrivalRate,
		CompletionRate: res.Stats.CompletionRate,
		Utilization:    res.Stats.Utilization,
		Completed:      len(res.Stats.Completions),
		MeanDelaySec:   res.Stats.MeanDelay(),
		Allocation:     alloc,
		Controller:     controller,
	})
}

func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	state := sess.env.Reset()
	sess.havePrev = false
	if sess.fallback != nil {
		sess.fallback.Reset()
	}
	sess.ops = append(sess.ops, SessionOp{Kind: opKindReset})
	sess.syncGauges()
	writeJSON(w, http.StatusOK, map[string][]float64{"state": state})
}

func (s *Server) handleBurst(w http.ResponseWriter, r *http.Request) {
	var req BurstRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := sess.generator.InjectBurst(req.Counts); err != nil {
		writeError(w, http.StatusUnprocessableEntity, CodeBadBurst, err)
		return
	}
	sess.ops = append(sess.ops, SessionOp{Kind: opKindBurst, Counts: req.Counts})
	sess.syncGauges()
	writeJSON(w, http.StatusOK, map[string][]float64{"state": sess.env.State()})
}

func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	var plan faults.Plan
	if !decodeBody(w, r, &plan) {
		return
	}
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := sess.env.Cluster().ScheduleFaults(plan); err != nil {
		writeError(w, http.StatusUnprocessableEntity, CodeBadFaultPlan, err)
		return
	}
	sess.ops = append(sess.ops, SessionOp{Kind: opKindFaults, Plan: &plan})
	writeJSON(w, http.StatusOK, sessionInfo(sess))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sh := s.shardFor(id)
	if !s.remove(sh, id, nil, "") {
		s.writeMiss(w, r, sh, id)
		return
	}
	// A deleted session must stay deleted: drop any spilled snapshot so a
	// later rehydrate (failover or restart) cannot resurrect it.
	s.removeSpill(id)
	w.WriteHeader(http.StatusNoContent)
}

// syncGauges refreshes the session's env/cluster gauges from the emulated
// system. Called under the session lock after any state-changing endpoint.
func (sess *session) syncGauges() {
	c := sess.env.Cluster()
	sess.wip.Set(c.TotalWIP())
	sess.inflight.Set(float64(c.InFlight()))
}

// SessionCount returns the number of live sessions across all shards.
func (s *Server) SessionCount() int {
	return int(s.live.Load())
}
