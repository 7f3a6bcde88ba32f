// Serving-side self-healing: sessions can carry a frozen policy snapshot
// that drives auto-steps, degrade to the HPA baseline when that policy
// misbehaves (panic, non-finite output, budget violation), and promote the
// policy back after consecutive healthy shadow probes. The same file holds
// the snapshot/restore surface — a session's full history as a replayable
// operation log — and the protective middlewares (body-size cap, the one
// request-time bound).

package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"miras/internal/baselines"
	"miras/internal/env"
	"miras/internal/faults"
	"miras/internal/obs"
	"miras/internal/rl"
)

// recoveryProbes is how many consecutive healthy shadow evaluations a
// sidelined policy must pass before it regains control from the HPA
// fallback.
const recoveryProbes = 3

// Operation kinds recorded in a session's replay log.
const (
	opKindStep   = "step"
	opKindReset  = "reset"
	opKindBurst  = "burst"
	opKindFaults = "faults"
)

// SessionOp is one state-changing operation in a session's history. Steps
// record the concrete applied allocation (auto-steps log what the
// controller chose), so replay never depends on controller state.
type SessionOp struct {
	Kind string `json:"kind"`
	// Alloc is set for "step" ops.
	Alloc []int `json:"alloc,omitempty"`
	// Counts is set for "burst" ops.
	Counts []int `json:"counts,omitempty"`
	// Plan is set for "faults" ops.
	Plan *faults.Plan `json:"plan,omitempty"`
}

// SessionSnapshot is a session's portable state: the effective creation
// request plus the ordered operation log, which together rebuild an
// equivalent emulated system deterministically (same seed → same
// trajectory), and the attached policy if any.
type SessionSnapshot struct {
	Create CreateRequest      `json:"create"`
	Ops    []SessionOp        `json:"ops"`
	Policy *rl.PolicySnapshot `json:"policy,omitempty"`
}

// decideScratch is a session's preallocated working memory for policy
// decisions: the snapshot evaluation scratch plus the allocation buffer
// SimplexToAllocationTo fills. It is owned by exactly one session and used
// only under that session's lock, so concurrent auto-steps on different
// sessions never share state — the decide hot path takes no server-wide
// mutex and performs no allocations.
type decideScratch struct {
	// owner is the snapshot the scratch was built for; attaching or
	// restoring a different policy invalidates it.
	owner *rl.PolicySnapshot
	act   *rl.PolicyScratch
	alloc []int
}

// scratchFor returns the session's decide scratch, (re)building it when the
// policy or environment shape changed since it was last used.
func (sess *session) scratchFor(p *rl.PolicySnapshot) *decideScratch {
	if sess.scratch == nil || sess.scratch.owner != p || len(sess.scratch.alloc) != sess.env.ActionDim() {
		sess.scratch = &decideScratch{
			owner: p,
			act:   p.NewScratch(),
			alloc: make([]int, sess.env.ActionDim()),
		}
	}
	return sess.scratch
}

// decideAuto picks the allocation for a step request that omitted one.
// Callers hold the session lock. The healthy path asks the attached policy;
// any policy failure degrades the session to a fresh HPA fallback (counted
// in miras_controller_fallback_total) which keeps serving while the policy
// is shadow-probed each window. After recoveryProbes consecutive clean
// probes the policy is promoted back (miras_controller_recovered_total).
// The returned allocation may alias session-owned scratch; callers that
// retain it past the next decision must copy.
func (sess *session) decideAuto() ([]int, string, error) {
	if sess.policy == nil && sess.fallback == nil {
		return nil, "", fmt.Errorf("session %s has no policy attached: supply an allocation or attach one via POST /v1/sessions/%s/policy",
			sess.id, sess.id)
	}
	prev := sess.prev
	if !sess.havePrev {
		prev = syntheticPrev(sess.env)
	}
	if sess.fallback == nil {
		alloc, err := policyDecide(sess.policy, sess.env, prev.State, sess.scratchFor(sess.policy))
		if err == nil {
			return alloc, "policy", nil
		}
		sess.fallback = baselines.NewHPA(sess.env.Budget())
		sess.healthyProbes = 0
		sess.fallbackTotal.Inc()
		// A serving policy just failed in production terms — capture a
		// profile of the moment (rate-limited; nil-safe when disabled).
		sess.profiler.Trigger("hpa_fallback")
		return sess.fallback.Decide(prev), "hpa", nil
	}
	// Degraded: HPA serves this window; shadow-probe the sidelined policy
	// without applying its output. Promotion takes effect next window.
	alloc := sess.fallback.Decide(prev)
	if sess.policy != nil {
		if _, err := policyDecide(sess.policy, sess.env, prev.State, sess.scratchFor(sess.policy)); err != nil {
			sess.healthyProbes = 0
		} else if sess.healthyProbes++; sess.healthyProbes >= recoveryProbes {
			sess.fallback = nil
			sess.healthyProbes = 0
			sess.recoveredTotal.Inc()
		}
	}
	return alloc, "hpa", nil
}

// syntheticPrev fabricates the controller input for the very first window
// (or the first after a reset), when no step result exists yet: current
// state, WIP read straight off the state vector, zero utilization.
func syntheticPrev(e *env.Env) env.StepResult {
	state := e.State()
	j := e.ActionDim()
	return env.StepResult{
		State: state,
		Stats: env.Stats{
			WIP:         append([]float64(nil), state[:j]...),
			Utilization: make([]float64, j),
		},
	}
}

// policyDecide runs the frozen policy defensively: panics are recovered,
// outputs must be finite non-negative simplex weights, and the resulting
// allocation must respect the budget. Any violation is a policy failure.
// All working memory comes from sc, so the healthy path performs zero
// allocations; the returned allocation aliases sc.alloc.
func policyDecide(p *rl.PolicySnapshot, e *env.Env, state []float64, sc *decideScratch) (alloc []int, err error) {
	defer func() {
		if r := recover(); r != nil {
			alloc, err = nil, fmt.Errorf("policy panicked: %v", r)
		}
	}()
	a := p.ActTo(sc.act, state)
	if len(a) != e.ActionDim() {
		return nil, fmt.Errorf("policy emitted %d outputs, want %d", len(a), e.ActionDim())
	}
	for i, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("policy output[%d] = %g is not a simplex weight", i, v)
		}
	}
	m := env.SimplexToAllocationTo(sc.alloc, a, e.Budget())
	if !env.ValidAllocation(m, e.Budget()) {
		return nil, fmt.Errorf("policy allocation %v violates budget %d", m, e.Budget())
	}
	return m, nil
}

// validatePolicyFor checks a snapshot's internal consistency and that its
// dimensions match the session's environment.
func validatePolicyFor(p *rl.PolicySnapshot, e *env.Env) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if got := p.Actor.InDim(); got != e.StateDim() {
		return fmt.Errorf("policy input width %d != session state dim %d", got, e.StateDim())
	}
	if got := p.Actor.OutDim(); got != e.ActionDim() {
		return fmt.Errorf("policy output width %d != session action dim %d", got, e.ActionDim())
	}
	return nil
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	var snap rl.PolicySnapshot
	if !decodeBody(w, r, &snap) {
		return
	}
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := validatePolicyFor(&snap, sess.env); err != nil {
		writeError(w, http.StatusUnprocessableEntity, CodeBadPolicy, err)
		return
	}
	// A freshly attached policy starts trusted: clear any degradation left
	// over from its predecessor. The decide scratch belongs to the old
	// policy; drop it so the first auto-step rebuilds it for this one.
	sess.policy = &snap
	sess.fallback = nil
	sess.healthyProbes = 0
	sess.scratch = nil
	writeJSON(w, http.StatusOK, sessionInfo(sess))
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	snap := SessionSnapshot{Create: sess.create, Ops: sess.ops, Policy: sess.policy}
	if snap.Ops == nil {
		snap.Ops = []SessionOp{}
	}
	writeJSON(w, http.StatusOK, snap)
}

// buildFromSnapshot rebuilds an emulated system from a snapshot: a fresh
// system from the creation request, the operation log replayed in order,
// the attached policy validated against the result. It returns the
// snapshot-derived fields of a session (env, generator, windows, create
// with the seed defaulted — so a later snapshot round-trips byte-
// identically — ops, policy). Shared by POST …/restore and admin rehydrate
// — both owe their byte-identical round-trip guarantee to this replay
// being deterministic.
func (s *Server) buildFromSnapshot(snap SessionSnapshot, faultsTotal, crashed *obs.Counter) (*session, ErrorCode, error) {
	req := snap.Create
	if req.Seed == 0 {
		req.Seed = 1
	}
	e, gen, _, err := s.buildSystem(req, faultsTotal, crashed)
	if err != nil {
		return nil, CodeBadSnapshot, fmt.Errorf("snapshot create request: %w", err)
	}
	windows := 0
	for i, op := range snap.Ops {
		switch op.Kind {
		case opKindStep:
			if _, err := e.Step(op.Alloc); err != nil {
				return nil, CodeBadSnapshot, fmt.Errorf("replay op %d (step): %w", i, err)
			}
			windows++
		case opKindReset:
			e.Reset()
		case opKindBurst:
			if err := gen.InjectBurst(op.Counts); err != nil {
				return nil, CodeBadSnapshot, fmt.Errorf("replay op %d (burst): %w", i, err)
			}
		case opKindFaults:
			if op.Plan == nil {
				return nil, CodeBadSnapshot, fmt.Errorf("replay op %d (faults): missing plan", i)
			}
			if err := e.Cluster().ScheduleFaults(*op.Plan); err != nil {
				return nil, CodeBadSnapshot, fmt.Errorf("replay op %d (faults): %w", i, err)
			}
		default:
			return nil, CodeBadSnapshot, fmt.Errorf("replay op %d: unknown kind %q", i, op.Kind)
		}
	}
	if snap.Policy != nil {
		if err := validatePolicyFor(snap.Policy, e); err != nil {
			return nil, CodeBadSnapshot, err
		}
	}
	return &session{env: e, generator: gen, windows: windows, create: req,
		ops: snap.Ops, policy: snap.Policy}, "", nil
}

// handleRestore rebuilds the session from a snapshot: a fresh emulated
// system from the creation request, the operation log replayed in order.
// The swap is atomic from the client's view — any failure leaves the
// current session untouched. Fault counters are cumulative across the
// session's metric series, so replayed fault activations count again.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	var snap SessionSnapshot
	if !decodeBody(w, r, &snap) {
		return
	}
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	span := obs.SpanFromContext(r.Context()).Child("session.restore").
		Str("session", sess.id).Int("ops", len(snap.Ops))
	defer span.End()
	built, code, err := s.buildFromSnapshot(snap, sess.faultsTotal, sess.crashed)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, code, err)
		return
	}
	sess.env = built.env
	sess.generator = built.generator
	sess.ensemble = built.create.Ensemble
	sess.create = built.create
	sess.ops = built.ops
	sess.windows = built.windows
	sess.policy = built.policy
	sess.fallback = nil
	sess.healthyProbes = 0
	sess.scratch = nil
	sess.prev = env.StepResult{}
	sess.havePrev = false
	// The snapshot's lifecycle bounds replace the session's.
	sess.ttl = time.Duration(built.create.TTLSeconds * float64(time.Second))
	sess.idle = time.Duration(built.create.IdleTimeoutSeconds * float64(time.Second))
	sess.syncGauges()
	writeJSON(w, http.StatusOK, sessionInfo(sess))
}

// --- protective middlewares ---

// maxBodyMiddleware caps every request body at n bytes; decodeBody turns
// the resulting *http.MaxBytesError into a 413 body_too_large envelope.
func maxBodyMiddleware(n int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, n)
		}
		next.ServeHTTP(w, r)
	})
}

// bufferedResponse accumulates a handler's full response in memory so the
// bound middleware can atomically either flush it or discard it in favor of
// a timeout envelope. Handler responses here are small (session info, step
// stats), so buffering is cheap.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(status int) { b.status = status }

func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

// maxDeadlineMs is the largest DeadlineHeader value that still fits a
// time.Duration; anything above is clamped to it (292 years is unbounded
// for every practical purpose, and a wrapped-negative budget is not).
const maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)

// RequestDeadline reads the caller's propagated budget from DeadlineHeader
// — the one parser `miras serve` and `miras route` share. It returns the
// budget (0 when the header is absent) and true, or writes the refusal
// itself and returns false: 400 bad_request for a malformed value, 504
// deadline_exceeded for a budget already spent (≤ 0 ms).
func RequestDeadline(w http.ResponseWriter, r *http.Request) (time.Duration, bool) {
	raw := r.Header.Get(DeadlineHeader)
	if raw == "" {
		return 0, true
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("invalid %s header %q", DeadlineHeader, raw))
		return 0, false
	}
	if ms <= 0 {
		writeError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded,
			fmt.Errorf("request deadline already exhausted"))
		return 0, false
	}
	return time.Duration(min(ms, maxDeadlineMs)) * time.Millisecond, true
}

// boundMiddleware is the one bound on a request's time. The budget is the
// tighter of the server's own request timeout (0 = none) and the caller's
// propagated DeadlineHeader; the handler runs under a context carrying it,
// its response is buffered, and when the budget runs out first the client
// gets a clean envelope instead of a half-written body — 408
// request_timeout when the server's bound tripped (the server protecting
// itself), 504 deadline_exceeded when the caller's did (work the caller
// has given up on is abandoned, not finished). With neither bound the
// handler runs on the caller's goroutine, unbuffered.
func boundMiddleware(serverTimeout time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		budget, ok := RequestDeadline(w, r)
		if !ok {
			return
		}
		serverBound := serverTimeout > 0 && (budget == 0 || serverTimeout < budget)
		if serverBound {
			budget = serverTimeout
		}
		if budget == 0 {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		buf := &bufferedResponse{header: make(http.Header), status: http.StatusOK}
		done := make(chan struct{})
		go func() {
			defer close(done)
			next.ServeHTTP(buf, r.WithContext(ctx))
		}()
		select {
		case <-done:
			h := w.Header()
			for k, vs := range buf.header {
				h[k] = vs
			}
			w.WriteHeader(buf.status)
			_, _ = w.Write(buf.body.Bytes())
		case <-ctx.Done():
			if serverBound {
				writeError(w, http.StatusRequestTimeout, CodeRequestTimeout,
					fmt.Errorf("request exceeded the %s deadline", budget))
			} else {
				writeError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded,
					fmt.Errorf("request exceeded its %dms deadline", budget.Milliseconds()))
			}
		}
	})
}
