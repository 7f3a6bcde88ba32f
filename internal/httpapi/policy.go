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
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"miras/internal/baselines"
	"miras/internal/env"
	"miras/internal/obs"
	"miras/internal/rl"
)

// recoveryProbes is how many consecutive healthy shadow evaluations a
// sidelined policy must pass before it regains control from the HPA
// fallback.
const recoveryProbes = 3

// SessionSnapshot is a session's portable state: the effective creation
// request plus the env's op log, which together rebuild an equivalent
// emulated system deterministically (same seed → same trajectory), and the
// attached policy if any. Steps record the applied allocation (auto-steps
// log what the controller chose), so replay never depends on controllers.
type SessionSnapshot struct {
	Create CreateRequest      `json:"create"`
	Ops    []env.Op           `json:"ops"`
	Policy *rl.PolicySnapshot `json:"policy,omitempty"`
	// LastStep is the session's record of its last keyed step, so a retry
	// of that step stays a retry across spill, rehydrate and restore.
	LastStep *StepRecord `json:"last_step,omitempty"`
}

// StepRecord is the last successful step of a session, when that step
// carried an IdempotencyKeyHeader: the key and the JSON object the step
// answered (see IdempotencyKeyHeader).
type StepRecord struct {
	Key      string          `json:"key"`
	Response json.RawMessage `json:"response"`
}

// validate checks a record read from a snapshot: a key a step could have
// carried and a response that is a JSON object.
func (rec *StepRecord) validate() error {
	if rec.Key == "" || len(rec.Key) > maxIdempotencyKeyBytes {
		return fmt.Errorf("last_step key must be 1 to %d bytes, got %d", maxIdempotencyKeyBytes, len(rec.Key))
	}
	if !bytes.HasPrefix(bytes.TrimLeft(rec.Response, " \t\r\n"), []byte("{")) {
		return fmt.Errorf("last_step response is not a JSON object")
	}
	return nil
}

// snapshot returns the session's portable state. Callers hold the session
// lock. The result shares the op log, which is only ever appended to, and
// copies the last step's response, since the next step overwrites it.
func (sess *session) snapshot() SessionSnapshot {
	snap := SessionSnapshot{Create: sess.create, Ops: sess.env.Ops(), Policy: sess.policy}
	if sess.lastKey != "" {
		snap.LastStep = &StepRecord{Key: sess.lastKey, Response: bytes.Clone(sess.stepBuf[:len(sess.stepBuf)-1])}
	}
	return snap
}

// setLastStep makes rec, read from a snapshot, the record of a session
// that has none. Callers hold the session lock.
func (sess *session) setLastStep(rec *StepRecord) {
	if rec == nil {
		return
	}
	sess.lastKey = rec.Key
	sess.stepBuf = append(append(sess.stepBuf[:0], rec.Response...), '\n')
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
// retain it past the next decision must copy. tr is the server's tracer,
// whose profiler captures the moment of a fallback.
func (sess *session) decideAuto(tr *obs.Tracer) ([]int, string, error) {
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
		tr.Trigger("hpa_fallback")
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

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request, id string) {
	// Sizing the buffer from Content-Length (within the body cap) reads a
	// multi-megabyte policy without a chain of growing copies.
	body := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), s.maxBodyBytes)+bytes.MinRead))
	if _, err := body.ReadFrom(r.Body); err != nil {
		writeBodyError(w, err)
		return
	}
	snap, err := s.policies.intern(body.Bytes())
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	sess, ok := s.lookup(w, r, id)
	if !ok {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := validatePolicyFor(snap, sess.env); err != nil {
		writeError(w, http.StatusUnprocessableEntity, CodeBadPolicy, err)
		return
	}
	// A freshly attached policy starts trusted: clear any degradation left
	// over from its predecessor. The decide scratch belongs to the old
	// policy; drop it so the first auto-step rebuilds it for this one.
	sess.mutated()
	sess.policy = snap
	sess.fallback = nil
	sess.healthyProbes = 0
	sess.scratch = nil
	writeJSON(w, http.StatusOK, sessionInfo(sess))
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, id string) {
	sess, ok := s.lookup(w, r, id)
	if !ok {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	writeJSON(w, http.StatusOK, sess.snapshot())
}

// buildFromSnapshot rebuilds an emulated system from a snapshot: a fresh
// system from the creation request, the op log replayed onto it (env.Replay),
// the attached policy and the last step's record validated. It returns the
// snapshot-derived fields of a session (env, create with the seed defaulted
// — so a later snapshot round-trips byte-identically — policy and record).
// Shared by POST …/restore and admin rehydrate — both owe their
// byte-identical round-trip guarantee to this replay being deterministic.
func (s *Server) buildFromSnapshot(snap SessionSnapshot) (*session, ErrorCode, error) {
	req := snap.Create
	if req.Seed == 0 {
		req.Seed = 1
	}
	e, _, err := s.buildSystem(req)
	if err != nil {
		return nil, CodeBadSnapshot, fmt.Errorf("snapshot create request: %w", err)
	}
	if err := e.Replay(snap.Ops); err != nil {
		return nil, CodeBadSnapshot, err
	}
	if snap.Policy != nil {
		if err := validatePolicyFor(snap.Policy, e); err != nil {
			return nil, CodeBadSnapshot, err
		}
	}
	if snap.LastStep != nil {
		if err := snap.LastStep.validate(); err != nil {
			return nil, CodeBadSnapshot, err
		}
	}
	sess := &session{env: e, create: req, policy: snap.Policy}
	sess.setLastStep(snap.LastStep)
	return sess, "", nil
}

// handleRestore rebuilds the session from a snapshot: a fresh emulated
// system from the creation request, the op log replayed in order.
// The swap is atomic from the client's view — any failure leaves the
// current session untouched, its fault counters included. Fault counters
// are cumulative across the session's metric series, so a successful
// restore's replayed fault activations count again.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request, id string) {
	var in snapshotJSON
	if !decodeBody(w, r, &in) {
		return
	}
	snap, err := s.policies.snapshot(in)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	sess, ok := s.lookup(w, r, id)
	if !ok {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	span := obs.SpanFromContext(r.Context()).Child("session.restore").
		Str("session", sess.id).Int("ops", len(snap.Ops))
	defer span.End()
	built, code, err := s.buildFromSnapshot(snap)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, code, err)
		return
	}
	sess.mutated()
	sess.env = built.env
	sess.create = built.create
	sess.policy = built.policy
	sess.setLastStep(snap.LastStep)
	sess.fallback = nil
	sess.healthyProbes = 0
	sess.scratch = nil
	sess.prev = env.StepResult{}
	sess.havePrev = false
	// The snapshot's lifecycle bounds replace the session's.
	sess.ttl = time.Duration(built.create.TTLSeconds * float64(time.Second))
	sess.idle = time.Duration(built.create.IdleTimeoutSeconds * float64(time.Second))
	sess.syncedFaults, sess.syncedCrashes = 0, 0
	sess.syncGauges()
	writeJSON(w, http.StatusOK, sessionInfo(sess))
}

// --- the request's bound ---

// bufferedResponse accumulates a handler's full response in memory so
// serveBounded can atomically either flush it or discard it in favor of a
// deadline envelope. Handler responses here are small (session info, step
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

// serveBounded serves one request under its one bound, the caller's
// DeadlineHeader, read through RequestDeadline (which answers a malformed
// or spent budget itself). Without the header h runs on the caller's
// goroutine, straight onto w. With it h runs on a goroutine of its own
// under a context carrying the budget, its response buffered: a handler
// done in time is copied to w, and when the budget runs out first the
// client gets a clean 504 deadline_exceeded envelope instead of a
// half-written body. The abandoned handler runs on; the channel returned
// then closes when it returns, and is nil in every other case.
func serveBounded(w http.ResponseWriter, r *http.Request, id string, h endpoint) <-chan struct{} {
	budget, ok := RequestDeadline(w, r)
	if !ok {
		return nil
	}
	if budget == 0 {
		h(w, r, id)
		return nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	buf := &bufferedResponse{header: make(http.Header), status: http.StatusOK}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h(buf, r.WithContext(ctx), id)
	}()
	select {
	case <-done:
		hdr := w.Header()
		for k, vs := range buf.header {
			hdr[k] = vs
		}
		w.WriteHeader(buf.status)
		_, _ = w.Write(buf.body.Bytes())
		return nil
	case <-ctx.Done():
		writeError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded,
			fmt.Errorf("request exceeded its %dms deadline", budget.Milliseconds()))
		return done
	}
}
