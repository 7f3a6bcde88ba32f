// The session core: one served environment as a state machine with no HTTP
// in it. The shard's handlers are a codec around it (decode, look the
// session up, call one method under the session lock, map the error's code
// to a status, write), and tests drive it in process.
//
// Its transitions, each walked by a test without HTTP
// (TestPolicyFallbackAndRecovery, TestSpillAllWritesOnlyDirtySessions,
// TestStepKeyAnsweredAcrossSpillAndRehydrate):
//
//	controller  created  --Step-->                           stepping
//	            stepping --auto-step, the policy fails-->    degraded  (HPA decides; fallback counted; cause on session.decide)
//	            degraded --auto-step, its probe passes-->    probing   (HPA still decides)
//	            probing  --auto-step, its probe fails-->     degraded
//	            probing  --recoveryProbes-th clean probe-->  promoted  (recovery counted; HPA decides this window)
//	            promoted --auto-step-->                      stepping  (the policy decides again)
//	            any      --AttachPolicy-->                   stepping, not degraded: a fresh policy starts trusted
//	            any      --Restore-->                        created, with the snapshot's history and policy
//	spill copy  dirty    --SpillSnapshot-->                  spilled
//	            spilled  --a mutation; a failed write-->     dirty
//	record      cleared  --Step under a key-->               set: a Step repeating the key answers it, stepping nothing
//	            set      --any other mutation-->             cleared
//	            any      --Restore-->                        the snapshot's last_step
//
// An auto-step with no step before it (created, or after Reset) decides
// from a synthetic window. Every mutation ends in commit, the one
// bookkeeping step: the spill copy turns dirty, the record is set or
// cleared, and the metric series catch up with the emulator.

package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"miras/internal/baselines"
	"miras/internal/cluster"
	"miras/internal/env"
	"miras/internal/faults"
	"miras/internal/obs"
	"miras/internal/rl"
	"miras/internal/workflow"
)

const (
	// recoveryProbes is how many consecutive clean shadow probes a sidelined
	// policy must pass to regain control from the HPA fallback.
	recoveryProbes = 3
	// maxIdempotencyKeyBytes bounds an IdempotencyKeyHeader value and the
	// key a snapshot's last_step may carry.
	maxIdempotencyKeyBytes = 128
)

// Why a policy decision failed: the closed set of causes a session.decide
// span records as "cause".
const (
	causePanic      = "panic"       // the policy panicked
	causeBadArity   = "bad_arity"   // it emitted the wrong number of weights
	causeNonFinite  = "non_finite"  // a weight was NaN or infinite
	causeNegative   = "negative"    // a weight was negative
	causeOverBudget = "over_budget" // the allocation broke the budget
)

// codedError is an error with the stable code it is answered with. Every
// error the core returns is one; the codec maps its code to a status.
type codedError struct {
	code ErrorCode
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }

func coded(code ErrorCode, err error) error { return &codedError{code: code, err: err} }

// codeOf returns the code err carries, internal for an error without one.
func codeOf(err error) ErrorCode {
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.code
	}
	return CodeInternal
}

// session is one live environment. mu serialises every operation touching
// the session's state; the codec locks it after resolving the id through
// the registry, so sessions never contend with each other. Every method
// below but expired and setBounds is called under mu.
type session struct {
	mu sync.Mutex

	id string
	// Lifecycle, read without the session lock so lookups take none:
	// createdAt is immutable after insert, lastAccess is the UnixNano of the
	// last request that resolved the session, ttl and idle are its bounds
	// in nanoseconds (0 = unbounded).
	createdAt  time.Time
	lastAccess atomic.Int64
	ttl, idle  atomic.Int64

	sessionState

	// tracer is the server's, whose profiler captures a fallback; windows
	// is the server's count of windows stepped across sessions.
	tracer  *obs.Tracer
	windows *obs.Counter
	// Per-session series (see sessionSeries), removed with the session.
	wip, inflight                                       *obs.Gauge
	faultsTotal, crashed, fallbackTotal, recoveredTotal *obs.Counter
}

// sessionState is everything a snapshot determines: Restore replaces it
// whole.
type sessionState struct {
	env *env.Env // records its own op log, which snapshots export
	// create is the effective creation request (defaults applied); a
	// snapshot rebuilds an equivalent session from it and env's op log.
	create CreateRequest

	// policy is the attached serving policy (nil until AttachPolicy).
	policy *rl.PolicySnapshot
	// fallback is non-nil while the session is degraded to the HPA
	// baseline after a policy failure; healthyProbes counts consecutive
	// successful shadow probes of the sidelined policy.
	fallback      *baselines.HPA
	healthyProbes int
	// scratch is the preallocated decide working memory (see decideScratch);
	// nil until the first auto-step and after a policy change.
	scratch *decideScratch
	// prev is the last step result, feeding controller decisions; zero
	// before the first step and after a reset.
	prev env.StepResult

	// lastKey is the idempotency key of the last successful step and
	// stepBuf that step's encoded response, newline included; lastKey is ""
	// when the step carried no key or a later mutation cleared the record.
	// stepBuf's array is reused from step to step.
	lastKey string
	stepBuf []byte
	// spilled reports that the spill store holds the session's current
	// state, so SpillAll may skip it.
	spilled bool

	// syncedFaults and syncedCrashes are the emulator's fault counts
	// (cluster.FaultsInjected and cluster.Failures) that faultsTotal and
	// crashed last caught up with; syncGauges adds the growth since.
	syncedFaults, syncedCrashes uint64
}

// newSession builds the emulated system (env.New) a create request stands
// for, its seed defaulted to 1 so that a snapshot of the session
// round-trips byte-identically.
func newSession(req CreateRequest) (*session, error) {
	if req.Seed == 0 {
		req.Seed = 1
	}
	ens, ok := workflow.ByName(req.Ensemble)
	if !ok {
		return nil, coded(CodeUnknownEnsemble, fmt.Errorf("unknown ensemble %q", req.Ensemble))
	}
	if req.TTLSeconds < 0 {
		return nil, coded(CodeBadSessionConfig,
			fmt.Errorf("ttl_seconds must be non-negative, got %g", req.TTLSeconds))
	}
	if req.IdleTimeoutSeconds < 0 {
		return nil, coded(CodeBadSessionConfig,
			fmt.Errorf("idle_timeout_seconds must be non-negative, got %g", req.IdleTimeoutSeconds))
	}
	e, err := env.New(env.Config{
		Cluster:      cluster.Config{Ensemble: ens, Faults: req.Faults},
		Seed:         req.Seed,
		Rates:        req.Rates,
		Budget:       req.Budget,
		WindowSec:    req.WindowSec,
		FailureAware: req.FailureAware,
	})
	if err != nil {
		if req.Faults != nil && req.Faults.Validate(ens.NumTasks()) != nil {
			return nil, coded(CodeBadFaultPlan, err)
		}
		return nil, coded(CodeBadSessionConfig, err)
	}
	return &session{sessionState: sessionState{env: e, create: req}}, nil
}

// buildFromSnapshot rebuilds a session from a snapshot: a fresh system from
// the creation request, the op log replayed onto it (env.Replay), the policy
// and the last step's record validated. Restore, rehydrate and failover all
// build here, and owe their byte-identical round trip to this replay.
func buildFromSnapshot(snap SessionSnapshot) (*session, error) {
	built, err := newSession(snap.Create)
	if err != nil {
		return nil, coded(CodeBadSnapshot, fmt.Errorf("snapshot create request: %w", err))
	}
	if err := built.env.Replay(snap.Ops); err != nil {
		return nil, coded(CodeBadSnapshot, err)
	}
	if snap.Policy != nil {
		if err := validatePolicyFor(snap.Policy, built.env); err != nil {
			return nil, coded(CodeBadSnapshot, err)
		}
	}
	if rec := snap.LastStep; rec != nil {
		if err := rec.validate(); err != nil {
			return nil, coded(CodeBadSnapshot, err)
		}
		built.lastKey = rec.Key
		built.stepBuf = append(append([]byte(nil), rec.Response...), '\n')
	}
	built.policy = snap.Policy
	return built, nil
}

// setBounds takes the session's TTL and idle bounds from its create request.
func (sess *session) setBounds(req CreateRequest) {
	sess.ttl.Store(int64(req.TTLSeconds * float64(time.Second)))
	sess.idle.Store(int64(req.IdleTimeoutSeconds * float64(time.Second)))
}

// expired reports whether the session has outlived its TTL or idle bound
// at now, and which bound tripped ("ttl" or "idle").
func (sess *session) expired(now time.Time) (string, bool) {
	if ttl := time.Duration(sess.ttl.Load()); ttl > 0 && now.Sub(sess.createdAt) >= ttl {
		return "ttl", true
	}
	if idle := time.Duration(sess.idle.Load()); idle > 0 && now.Sub(time.Unix(0, sess.lastAccess.Load())) >= idle {
		return "idle", true
	}
	return "", false
}

// commit is the bookkeeping after every mutation: the spill copy is stale,
// the record becomes key ("" clears it), the series catch up.
func (sess *session) commit(key string) {
	sess.spilled = false
	sess.lastKey = key
	sess.syncGauges()
}

// syncGauges refreshes the env/cluster gauges and adds the emulator's fault
// counts' growth since the last sync to the fault counters.
func (sess *session) syncGauges() {
	c := sess.env.Cluster()
	sess.wip.Set(c.TotalWIP())
	sess.inflight.Set(float64(c.InFlight()))
	injected, crashes := c.FaultsInjected(), c.Failures()
	sess.faultsTotal.Add(injected - sess.syncedFaults)
	sess.crashed.Add(crashes - sess.syncedCrashes)
	sess.syncedFaults, sess.syncedCrashes = injected, crashes
}

// Step applies alloc (nil: an auto-step) for one control window and returns
// the encoded response, newline included, valid until the next Step. A
// step whose caller gave up (ctx done) while it queued on the session lock
// is abandoned before it runs.
func (sess *session) Step(ctx context.Context, alloc []int, key string) ([]byte, error) {
	if key != "" && key == sess.lastKey {
		return sess.stepBuf, nil
	}
	if ctx.Err() != nil {
		return nil, coded(CodeDeadlineExceeded, errors.New("the client gave up before the step ran"))
	}
	root := obs.SpanFromContext(ctx)
	controller := ""
	if alloc == nil {
		span := root.Child("session.decide").Str("session", sess.id)
		var cause string
		var err error
		alloc, controller, cause, err = sess.decideAuto()
		if cause != "" {
			span.Str("cause", cause)
		}
		span.Str("controller", controller).End()
		if err != nil {
			return nil, err
		}
	}
	span := root.Child("session.step").Str("session", sess.id).Int("window", sess.env.Window())
	res, err := sess.env.Step(alloc)
	if err != nil {
		span.Bool("error", true).End()
		return nil, coded(CodeBadAllocation, err)
	}
	span.F64("reward", res.Reward).End()
	sess.prev = res
	sess.windows.Inc()
	sess.stepBuf, err = appendStepResponse(sess.stepBuf[:0], StepResponse{
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
	if err != nil {
		sess.commit("")
		return nil, coded(CodeInternal, err)
	}
	sess.commit(key)
	return sess.stepBuf, nil
}

// Reset clears the emulator's work in progress and returns its state.
func (sess *session) Reset() []float64 {
	state := sess.env.Reset()
	sess.prev = env.StepResult{}
	if sess.fallback != nil {
		sess.fallback.Reset()
	}
	sess.commit("")
	return state
}

// Burst injects counts requests per workflow type and returns the state. A
// refused burst changes nothing.
func (sess *session) Burst(counts []int) ([]float64, error) {
	if err := sess.env.InjectBurst(counts); err != nil {
		return nil, coded(CodeBadBurst, err)
	}
	sess.commit("")
	return sess.env.State(), nil
}

// ArmFaults arms plan relative to the session's current virtual time.
func (sess *session) ArmFaults(plan faults.Plan) (SessionInfo, error) {
	if err := sess.env.ScheduleFaults(plan); err != nil {
		return SessionInfo{}, coded(CodeBadFaultPlan, err)
	}
	sess.commit("")
	return sess.Info(), nil
}

// AttachPolicy makes p the session's serving policy, trusted: degradation
// and the old policy's decide scratch go.
func (sess *session) AttachPolicy(p *rl.PolicySnapshot) (SessionInfo, error) {
	if err := validatePolicyFor(p, sess.env); err != nil {
		return SessionInfo{}, coded(CodeBadPolicy, err)
	}
	sess.policy = p
	sess.fallback, sess.healthyProbes, sess.scratch = nil, 0, nil
	sess.commit("")
	return sess.Info(), nil
}

// Restore replaces the session's state, bounds included, with built's (a
// buildFromSnapshot result); the fault series count replayed faults again.
func (sess *session) Restore(built *session) SessionInfo {
	sess.sessionState = built.sessionState
	sess.setBounds(sess.create)
	sess.commit(sess.lastKey)
	return sess.Info()
}

// Snapshot returns the session's portable state. The result shares the op
// log, which is only ever appended to, and copies the last step's response,
// since the next step overwrites it.
func (sess *session) Snapshot() SessionSnapshot {
	snap := SessionSnapshot{Create: sess.create, Ops: sess.env.Ops(), Policy: sess.policy}
	if sess.lastKey != "" {
		snap.LastStep = &StepRecord{Key: sess.lastKey, Response: bytes.Clone(sess.stepBuf[:len(sess.stepBuf)-1])}
	}
	return snap
}

// SpillSnapshot marks the session spilled and returns the snapshot to write;
// with dirtyOnly, a session already spilled returns false and nothing.
func (sess *session) SpillSnapshot(dirtyOnly bool) (SessionSnapshot, bool) {
	if dirtyOnly && sess.spilled {
		return SessionSnapshot{}, false
	}
	sess.SetSpilled(true)
	return sess.Snapshot(), true
}

// SetSpilled records whether the spill store holds the session's state:
// false after a failed write.
func (sess *session) SetSpilled(spilled bool) { sess.spilled = spilled }

// Info is the session's wire view.
func (sess *session) Info() SessionInfo {
	c := sess.env.Cluster()
	return SessionInfo{
		ID:                 sess.id,
		Ensemble:           sess.create.Ensemble,
		StateDim:           sess.env.StateDim(),
		ActionDim:          sess.env.ActionDim(),
		Budget:             sess.env.Budget(),
		WindowSec:          sess.env.WindowSec(),
		Windows:            sess.env.Window(),
		TTLSeconds:         time.Duration(sess.ttl.Load()).Seconds(),
		IdleTimeoutSeconds: time.Duration(sess.idle.Load()).Seconds(),
		FailureAware:       sess.env.FailureAware(),
		State:              sess.env.State(),
		Consumers:          c.Consumers(),
		Crashed:            c.Failures(),
		Redelivered:        c.Redeliveries(),
		Dropped:            c.Dropped(),
		FaultSpecs:         c.FaultSpecs(),
		ActiveFaults:       c.ActiveFaults(),
		HasPolicy:          sess.policy != nil,
		Degraded:           sess.fallback != nil,
	}
}

// decideAuto picks the allocation for an auto-step, moving the controller
// through its transitions (see the file comment); cause names a failed
// policy evaluation, the decision's or the probe's. The returned allocation
// aliases session-owned scratch until the next decision.
func (sess *session) decideAuto() (alloc []int, controller, cause string, err error) {
	if sess.policy == nil {
		return nil, "", "", coded(CodeBadPolicy, fmt.Errorf(
			"session %s has no policy attached: supply an allocation or attach one via POST /v1/sessions/%s/policy",
			sess.id, sess.id))
	}
	prev := sess.prev
	if prev.State == nil {
		prev = sess.env.StartResult()
	}
	if sess.fallback == nil {
		if alloc, cause = policyDecide(sess.policy, sess.env, prev.State, sess.decideScratch()); cause == "" {
			return alloc, "policy", "", nil
		}
		sess.fallback = baselines.NewHPA(sess.env.Budget())
		sess.healthyProbes = 0
		sess.fallbackTotal.Inc()
		// A serving policy just failed in production terms — capture a
		// profile of the moment (rate-limited; nil-safe when disabled).
		sess.tracer.Trigger("hpa_fallback")
		return sess.fallback.Decide(prev), "hpa", cause, nil
	}
	// Degraded: HPA serves this window; shadow-probe the sidelined policy
	// without applying its output. Promotion takes effect next window.
	alloc = sess.fallback.Decide(prev)
	if _, cause = policyDecide(sess.policy, sess.env, prev.State, sess.decideScratch()); cause != "" {
		sess.healthyProbes = 0
	} else if sess.healthyProbes++; sess.healthyProbes >= recoveryProbes {
		sess.fallback = nil
		sess.healthyProbes = 0
		sess.recoveredTotal.Inc()
	}
	return alloc, "hpa", cause, nil
}

// decideScratch is a session's preallocated working memory for policy
// decisions (the snapshot's evaluation scratch and the allocation buffer),
// used only under the session's lock: the decide hot path shares no state
// across sessions, takes no server-wide mutex and allocates nothing.
type decideScratch struct {
	act   *rl.PolicyScratch
	alloc []int
}

// decideScratch builds the decide scratch for the attached policy on first
// use; AttachPolicy and Restore, which change policy and shape, drop it.
func (sess *session) decideScratch() *decideScratch {
	if sess.scratch == nil {
		sess.scratch = &decideScratch{act: sess.policy.NewScratch(), alloc: make([]int, sess.env.ActionDim())}
	}
	return sess.scratch
}

// policyDecide runs the frozen policy defensively: panics are recovered,
// outputs must be finite non-negative simplex weights, and the resulting
// allocation must respect the budget. Any violation is a policy failure,
// returned as its cause ("" for a healthy decision). All working memory
// comes from sc, so the healthy path performs zero allocations; the
// returned allocation aliases sc.alloc.
func policyDecide(p *rl.PolicySnapshot, e *env.Env, state []float64, sc *decideScratch) (alloc []int, cause string) {
	defer func() {
		if recover() != nil {
			alloc, cause = nil, causePanic
		}
	}()
	a := p.ActTo(sc.act, state)
	if len(a) != e.ActionDim() {
		return nil, causeBadArity
	}
	for _, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, causeNonFinite
		}
		if v < 0 {
			return nil, causeNegative
		}
	}
	m := env.SimplexToAllocationTo(sc.alloc, a, e.Budget())
	if !env.ValidAllocation(m, e.Budget()) {
		return nil, causeOverBudget
	}
	return m, ""
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
