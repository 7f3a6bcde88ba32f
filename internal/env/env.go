// Package env wraps the emulated microservice cluster as a windowed
// control environment with the paper's state/action/reward definitions
// (§IV-B):
//
//	state  s(k) = w(k), the per-microservice work-in-progress vector;
//	action a(k) = m(k), the per-microservice consumer counts, with
//	              Σ_j m_j ≤ C (the consumer budget);
//	reward r(k) = 1 − Σ_j w_j(k+1), the negated aggregate WIP observed at
//	              the end of the window (Eq. 1, with the paper's Σ_{j=1}^{3}
//	              read as Σ_{j=1}^{J}).
//
// Each Step applies an allocation at the beginning of a time window
// (default 30 virtual seconds, §VI-A2), advances the emulation one window,
// and returns the next state together with the window's observable
// statistics, which the non-RL baseline controllers consume.
package env

import (
	"fmt"
	"math"
	"slices"

	"miras/internal/cluster"
	"miras/internal/faults"
	"miras/internal/invariant"
	"miras/internal/obs"
	"miras/internal/sim"
	"miras/internal/workload"
)

// DefaultWindowSec is the paper's chosen control interval (§VI-A2).
const DefaultWindowSec = 30.0

// Config describes the emulated system New builds and the Env over it.
type Config struct {
	// Cluster configures the emulated microservice system. Its Ensemble is
	// required, and its Faults is the fault plan armed at construction.
	// Engine, Streams and Tracer must be left nil: New fills them, the
	// tracer from Config.Tracer.
	Cluster cluster.Config
	// Seed roots every random stream of the system.
	Seed int64
	// Rates are the background Poisson rates per workflow type: nil means
	// workload.DefaultRates, zeros mean no background load. Arrivals keep
	// running across Reset.
	Rates []float64
	// WindowSec is the control window length; defaults to DefaultWindowSec.
	WindowSec float64
	// Budget is the total consumer constraint C (14 for MSD, 30 for LIGO
	// in the paper, §VI-A4). Required, positive.
	Budget int
	// Tracer, when non-nil, is also the cluster's tracer (cluster.Config).
	// The env emits one "env.window" span per Step covering the virtual
	// control window and carrying its action, end-of-window WIP, reward and
	// delay, with the cluster's scale actuation and any fault episodes
	// activated inside the window parented under it, and one zero-length
	// "env.constraint_violation" span per rejected action. Step installs
	// the span as the tracer's ambient parent for the window's duration, so
	// a Tracer must not be shared by envs stepping concurrently (the HTTP
	// server leaves session envs untraced for this reason). Nil disables
	// telemetry at zero cost.
	Tracer *obs.Tracer
	// FailureAware appends the cluster's per-microservice effective
	// capacity (started consumers divided by any active slowdown factor)
	// to the state vector, letting a policy observe fault degradation
	// directly: s(k) = [w(k) | c_eff(k)], doubling StateDim. The action
	// space, reward, and Stats are unchanged — see ActionDim.
	FailureAware bool
}

// Stats exposes everything observable about one completed window. RL uses
// only WIP; the queueing-theoretic baselines (DRS, MONAD, HEFT) use the
// rates.
type Stats struct {
	// Window is the window index since environment construction.
	Window int
	// WIP is the work-in-progress vector at the end of the window.
	WIP []float64
	// Consumers is the number of started consumers per microservice at
	// window end.
	Consumers []int
	// ArrivalRate is the per-microservice task arrival rate (tasks/sec)
	// measured over the window.
	ArrivalRate []float64
	// CompletionRate is the per-microservice task completion rate
	// (tasks/sec) over the window.
	CompletionRate []float64
	// ServiceMean is the cumulative empirical mean service duration per
	// microservice (sec), or the ensemble's nominal mean before any
	// request has completed.
	ServiceMean []float64
	// Utilization is per-microservice busy-consumer-seconds divided by
	// available consumer-seconds over the window (may exceed 1 transiently
	// after scale-down, since running tasks are not preempted).
	Utilization []float64
	// Completions lists the workflow requests that finished during the
	// window, with their end-to-end delays.
	Completions []cluster.Completion
}

// MeanDelay returns the mean end-to-end delay of workflow requests
// completed in the window, or 0 if none completed.
func (s Stats) MeanDelay() float64 {
	if len(s.Completions) == 0 {
		return 0
	}
	var sum float64
	for _, c := range s.Completions {
		sum += c.Delay()
	}
	return sum / float64(len(s.Completions))
}

// MeanDelayByWorkflow returns per-workflow-type mean delays over the
// window's completions (0 where no request of the type completed).
func (s Stats) MeanDelayByWorkflow(numWorkflows int) []float64 {
	sums := make([]float64, numWorkflows)
	counts := make([]int, numWorkflows)
	for _, c := range s.Completions {
		sums[c.Workflow] += c.Delay()
		counts[c.Workflow]++
	}
	for i := range sums {
		if counts[i] > 0 {
			sums[i] /= float64(counts[i])
		}
	}
	return sums
}

// StepResult is what one control interaction returns.
type StepResult struct {
	// State is s(k+1) — the WIP vector ending the window.
	State []float64
	// Reward is r(k) = 1 − Σ_j State_j.
	Reward float64
	// Stats carries the window's full observables.
	Stats Stats
}

// Env is the real-environment control interface. It is single-threaded,
// like the engine beneath it.
type Env struct {
	cfg      Config
	engine   *sim.Engine
	streams  *sim.Streams
	c        *cluster.Cluster
	gen      *workload.Generator
	window   int
	lastSnap cluster.Counters // the counters at the last window boundary
	spare    cluster.Counters // Step fills it, then swaps it with lastSnap
	inv      *invariant.Set
	ops      []Op // the history Ops returns and Replay rebuilds from
}

// Op kinds, as they appear on the wire and in checkpoints.
const (
	opStep   = "step"
	opReset  = "reset"
	opBurst  = "burst"
	opFaults = "faults"
)

// Op is one entry of an environment's history: "step" (Alloc), "reset",
// "burst" (Counts) or "faults" (Plan). The emulator's math/rand streams
// cannot be saved, so an environment is persisted as how it was built plus
// its Ops, and rebuilt by replaying them onto a fresh, identical one.
type Op struct {
	Kind   string       `json:"kind"`
	Alloc  []int        `json:"alloc,omitempty"`
	Counts []int        `json:"counts,omitempty"`
	Plan   *faults.Plan `json:"plan,omitempty"`
}

// New builds the emulated system cfg describes — a fresh engine, the random
// streams rooted at Seed, the cluster (with any fault plan in
// Cluster.Faults armed), and the background generator, already started —
// and returns the Env over it. Equal configs build systems with identical
// trajectories.
func New(cfg Config) (*Env, error) {
	cc := cfg.Cluster
	if cc.Engine != nil || cc.Streams != nil || cc.Tracer != nil {
		return nil, fmt.Errorf("env: Cluster.Engine, Streams and Tracer are New's to fill")
	}
	engine := sim.NewEngine()
	streams := sim.NewStreams(cfg.Seed)
	cc.Engine, cc.Streams, cc.Tracer = engine, streams, cfg.Tracer
	c, err := cluster.New(cc)
	if err != nil {
		return nil, err
	}
	rates := cfg.Rates
	if rates == nil {
		rates = workload.DefaultRates(cc.Ensemble)
	}
	gen, err := workload.NewGenerator(c, streams, engine, rates)
	if err != nil {
		return nil, err
	}
	gen.Start()
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("env: Budget must be positive, got %d", cfg.Budget)
	}
	if cfg.WindowSec == 0 {
		cfg.WindowSec = DefaultWindowSec
	}
	if !(cfg.WindowSec > 0) { // rejects non-positive and NaN
		return nil, fmt.Errorf("env: WindowSec must be positive, got %g", cfg.WindowSec)
	}
	e := &Env{cfg: cfg, engine: engine, streams: streams, c: c, gen: gen,
		lastSnap: c.Snapshot(), ops: []Op{}}
	e.registerInvariants()
	return e, nil
}

// registerInvariants declares the environment-level runtime invariants; Step
// evaluates them (plus the cluster's set) at every window boundary when
// invariant checking is enabled.
func (e *Env) registerInvariants() {
	inv := invariant.NewSet("env")
	// The observation must be well-formed: correct arity, and every WIP
	// entry a finite non-negative count. NaN here would poison the replay
	// buffer and every model fitted from it.
	inv.Register("state-valid", func() error {
		state := e.observe(e.c.WIP())
		if len(state) != e.StateDim() {
			return fmt.Errorf("state has %d entries, want StateDim %d", len(state), e.StateDim())
		}
		for i, v := range state {
			if math.IsNaN(v) || math.IsInf(v, 0) || (i < e.ActionDim() && v < 0) {
				return fmt.Errorf("state[%d] = %g is not a valid observation", i, v)
			}
		}
		return nil
	})
	// The actuated allocation can never exceed the consumer budget: Step
	// validates every action, so a violation means something scaled the
	// cluster behind the environment's back.
	inv.Register("budget", func() error {
		total := 0
		for _, m := range e.c.Targets() {
			total += m
		}
		if total > e.cfg.Budget {
			return fmt.Errorf("allocated %d consumers exceeds budget %d", total, e.cfg.Budget)
		}
		return nil
	})
	e.inv = inv
}

// StateDim returns the observation width: J (the number of microservices)
// normally, 2J when the environment is failure-aware.
func (e *Env) StateDim() int {
	if e.cfg.FailureAware {
		return 2 * e.c.NumTasks()
	}
	return e.c.NumTasks()
}

// ActionDim returns the action width: always J, one consumer count per
// microservice, regardless of how wide the observation is.
func (e *Env) ActionDim() int { return e.c.NumTasks() }

// FailureAware reports whether the state vector carries failure
// observables.
func (e *Env) FailureAware() bool { return e.cfg.FailureAware }

// Budget returns the consumer constraint C.
func (e *Env) Budget() int { return e.cfg.Budget }

// WindowSec returns the control window length.
func (e *Env) WindowSec() float64 { return e.cfg.WindowSec }

// Engine returns the discrete-event engine driving the system.
func (e *Env) Engine() *sim.Engine { return e.engine }

// Streams returns the random-stream factory rooted at Config.Seed.
func (e *Env) Streams() *sim.Streams { return e.streams }

// Cluster returns the underlying cluster (read-only use intended).
func (e *Env) Cluster() *cluster.Cluster { return e.c }

// Generator returns the background workload generator. A burst submitted
// through it directly is not recorded in Ops; use InjectBurst.
func (e *Env) Generator() *workload.Generator { return e.gen }

// Window returns the number of completed control windows.
func (e *Env) Window() int { return e.window }

// Reset implements the paper's environment reset (§VI-A3): WIP is brought
// (here: instantly) to zero. Background arrivals keep running — and so do
// any armed faults. It records a "reset" op and returns the new state.
func (e *Env) Reset() []float64 {
	e.c.Clear()
	e.c.SnapshotInto(&e.lastSnap)
	e.ops = append(e.ops, Op{Kind: opReset})
	return e.observe(e.c.WIP())
}

// State returns the current observation without advancing time.
func (e *Env) State() []float64 { return e.observe(e.c.WIP()) }

// observe extends the WIP vector with the failure observables when the
// environment is failure-aware; otherwise it returns wip unchanged.
func (e *Env) observe(wip []float64) []float64 {
	if !e.cfg.FailureAware {
		return wip
	}
	out := make([]float64, 0, 2*len(wip))
	out = append(out, wip...)
	return append(out, e.c.EffectiveCapacity()...)
}

// Step applies allocation m for the next window, advances one window of
// virtual time, and returns the resulting state, reward, and stats. It
// returns an error (without advancing) if m has the wrong arity, a negative
// entry, or Σ m_j > Budget; only success records a "step" op (copying m).
func (e *Env) Step(m []int) (StepResult, error) {
	if len(m) != e.ActionDim() {
		return StepResult{}, fmt.Errorf("env: action has %d entries for %d microservices", len(m), e.ActionDim())
	}
	total := 0
	for j, v := range m {
		if v < 0 {
			return StepResult{}, fmt.Errorf("env: negative allocation %d for microservice %d", v, j)
		}
		total += v
	}
	if total > e.cfg.Budget {
		now := e.c.Now()
		e.cfg.Tracer.Start("env.constraint_violation").T0(now).
			Int("window", e.window).
			Ints("action", m).
			Int("total", total).
			Int("budget", e.cfg.Budget).
			EndT(now)
		return StepResult{}, fmt.Errorf("env: allocation total %d exceeds budget %d", total, e.cfg.Budget)
	}
	c := e.c
	winSpan := e.cfg.Tracer.Start("env.window").T0(c.Now()).Int("window", e.window)
	restoreParent := e.cfg.Tracer.SetParent(winSpan)
	if err := c.SetConsumers(m); err != nil {
		restoreParent()
		return StepResult{}, err
	}
	start := c.Now()
	c.AdvanceTo(start + e.cfg.WindowSec)
	restoreParent()
	e.window++
	e.ops = append(e.ops, Op{Kind: opStep, Alloc: slices.Clone(m)})

	// Window boundaries are the natural verification checkpoint: the engine
	// is quiescent and every counter is settled. Both Run calls are no-ops
	// unless invariant checking is enabled.
	c.CheckInvariants()
	e.inv.Run()

	c.SnapshotInto(&e.spare)
	wip := c.WIP()
	stats := e.buildStats(wip, e.spare)
	e.lastSnap, e.spare = e.spare, e.lastSnap

	// Eq. 1 reward is defined on WIP alone; failure observables extend
	// the state but never the reward.
	var sum float64
	for _, w := range wip {
		sum += w
	}
	res := StepResult{State: e.observe(wip), Reward: 1 - sum, Stats: stats}
	// One span per window: the (s, a, r) triple of §IV-B plus the delay
	// observable the paper's evaluation plots (Fig. 6).
	if winSpan != nil {
		winSpan.Ints("action", m).
			F64s("wip", wip).
			F64("reward", res.Reward).
			F64("mean_delay", stats.MeanDelay()).
			Int("completed", len(stats.Completions)).
			EndT(c.Now())
	}
	return res, nil
}

// maxBurst bounds the requests one InjectBurst may submit. Each becomes a
// live workflow instance at once, so an unbounded count from a client (or a
// client-supplied op log) could exhaust memory; the largest paper burst
// (§VI-D) is 1 700.
const maxBurst = 1 << 16

// InjectBurst submits counts[i] requests of each workflow type i through the
// generator and records a "burst" op. A burst of more than maxBurst requests
// in total is rejected; a rejected burst submits and records nothing.
func (e *Env) InjectBurst(counts []int) error {
	total := 0
	for _, n := range counts {
		if n > maxBurst-total { // entry by entry, so the sum cannot overflow
			return fmt.Errorf("env: burst exceeds %d requests", maxBurst)
		}
		total += max(n, 0) // negative counts are the generator's to reject
	}
	if err := e.gen.InjectBurst(counts); err != nil {
		return err
	}
	e.ops = append(e.ops, Op{Kind: opBurst, Counts: slices.Clone(counts)})
	return nil
}

// ScheduleFaults arms plan on the cluster (cluster.ScheduleFaults) and
// records a "faults" op.
func (e *Env) ScheduleFaults(plan faults.Plan) error {
	if err := e.c.ScheduleFaults(plan); err != nil {
		return err
	}
	plan.Specs = slices.Clone(plan.Specs)
	e.ops = append(e.ops, Op{Kind: opFaults, Plan: &plan})
	return nil
}

// Ops returns every successful Step, Reset, InjectBurst and ScheduleFaults
// since construction, in order (empty, not nil, before the first). The log
// is append-only; the returned slice shares it and must not be modified.
func (e *Env) Ops() []Op { return e.ops[:len(e.ops):len(e.ops)] }

// Replay applies ops through Step, Reset, InjectBurst and ScheduleFaults,
// re-recording an identical log and, on a fresh env built like the one that
// recorded them, reproducing its state. It refuses an env that has recorded
// anything and stops at the first op that fails or is malformed (unknown
// kind, missing plan, a field of another kind), naming its index and kind.
func (e *Env) Replay(ops []Op) error {
	if len(e.ops) > 0 {
		return fmt.Errorf("env: replay onto an environment that has already recorded %d ops", len(e.ops))
	}
	for i, op := range ops {
		var err error
		switch {
		case op.Kind == opStep && op.Counts == nil && op.Plan == nil:
			_, err = e.Step(op.Alloc)
		case op.Kind == opReset && op.Alloc == nil && op.Counts == nil && op.Plan == nil:
			e.Reset()
		case op.Kind == opBurst && op.Alloc == nil && op.Plan == nil:
			err = e.InjectBurst(op.Counts)
		case op.Kind == opFaults && op.Alloc == nil && op.Counts == nil && op.Plan != nil:
			err = e.ScheduleFaults(*op.Plan)
		default:
			err = fmt.Errorf("malformed op")
		}
		if err != nil {
			return fmt.Errorf("env: replay op %d (%q): %w", i, op.Kind, err)
		}
	}
	return nil
}

// buildStats assembles window observables from counter deltas. The four
// rate vectors share one array, each capped at its own length.
func (e *Env) buildStats(state []float64, snap cluster.Counters) Stats {
	c := e.c
	j := e.ActionDim()
	rates := make([]float64, 4*j)
	st := Stats{
		Window:         e.window,
		WIP:            state,
		Consumers:      c.Consumers(),
		ArrivalRate:    rates[:j:j],
		CompletionRate: rates[j : 2*j : 2*j],
		ServiceMean:    rates[2*j : 3*j : 3*j],
		Utilization:    rates[3*j : 4*j : 4*j],
		Completions:    c.DrainCompletions(),
	}
	w := e.cfg.WindowSec
	for i := 0; i < j; i++ {
		st.ArrivalRate[i] = float64(snap.Arrivals[i]-e.lastSnap.Arrivals[i]) / w
		st.CompletionRate[i] = float64(snap.Completions[i]-e.lastSnap.Completions[i]) / w
		if snap.ServiceCount[i] > 0 {
			st.ServiceMean[i] = snap.ServiceSum[i] / float64(snap.ServiceCount[i])
		} else {
			st.ServiceMean[i] = c.Ensemble().Tasks[i].MeanServiceSec
		}
		if st.Consumers[i] > 0 {
			st.Utilization[i] = (snap.BusySeconds[i] - e.lastSnap.BusySeconds[i]) /
				(float64(st.Consumers[i]) * w)
		}
	}
	return st
}

// Controller is a resource-allocation policy: given the previous window's
// observables, it decides the consumer allocation for the next window.
// Implementations must respect Σ m_j ≤ budget.
type Controller interface {
	// Name identifies the controller in experiment output.
	Name() string
	// Decide returns the allocation for the next window.
	Decide(prev StepResult) []int
	// Reset clears any internal state between evaluation episodes.
	Reset()
}

// StartResult is the synthetic StepResult a controller's first decision
// sees, before any window has run (or after a reset): the current state and
// WIP, and no other stats.
func (e *Env) StartResult() StepResult {
	return StepResult{State: e.State(), Stats: Stats{WIP: e.c.WIP()}}
}

// Run drives the environment with the controller for the given number of
// windows, returning one StepResult per window. The first decision sees
// StartResult.
func Run(e *Env, ctrl Controller, windows int) ([]StepResult, error) {
	results := make([]StepResult, 0, windows)
	prev := e.StartResult()
	for k := 0; k < windows; k++ {
		m := ctrl.Decide(prev)
		res, err := e.Step(m)
		if err != nil {
			return results, fmt.Errorf("env: window %d (%s): %w", k, ctrl.Name(), err)
		}
		results = append(results, res)
		prev = res
	}
	return results, nil
}
