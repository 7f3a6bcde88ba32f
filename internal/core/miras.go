// Package core implements MIRAS itself — the paper's primary contribution:
// the iterative model-based reinforcement-learning resource-allocation
// agent of Algorithm 2.
//
// One outer iteration (i) collects interactions with the real microservice
// environment using the current policy (with parameter-space exploration
// noise), (ii) retrains the neural environment model on all data collected
// so far, and (iii) improves the DDPG policy by letting it interact with
// the refined model instead of the real system. The loop repeats until the
// iteration budget is exhausted; after every iteration the current policy
// is evaluated on the real environment, producing the training traces of
// Fig. 6.
package core

import (
	"fmt"
	"math"
	"math/rand"

	"miras/internal/env"
	"miras/internal/envmodel"
	"miras/internal/nn"
	"miras/internal/obs"
	"miras/internal/rl"
	"miras/internal/sim"
)

// Config parameterises a MIRAS agent. Paper values (§VI-A3): MSD uses
// StepsPerIteration 1000, ResetEvery 25, RolloutLen 25, EvalSteps 25, model
// hidden {20,20,20}, RL hidden {256,...}; LIGO uses 2000 / 25 / 10 / 100,
// model hidden {20}, RL hidden {512,...}.
type Config struct {
	// Env is the real environment. Required.
	Env *env.Env
	// ModelHidden lists the environment model's hidden widths (default
	// {20, 20, 20}).
	ModelHidden []int
	// ModelEpochs is the number of training epochs over the dataset after
	// each collection phase (default 20).
	ModelEpochs int
	// ModelLR is the model's Adam learning rate (0 → envmodel default).
	ModelLR float64
	// RL configures the DDPG agent; StateDim/ActionDim/Seed are filled in.
	RL rl.Config
	// Iterations is the number of outer Algorithm 2 iterations (default 12;
	// the paper's traces converge after ≈11).
	Iterations int
	// StepsPerIteration is the number of real-environment interactions
	// collected per outer iteration (default 1000).
	StepsPerIteration int
	// ResetEvery resets the real environment every this many collection
	// steps (default 25).
	ResetEvery int
	// RolloutLen is the synthetic-rollout episode length (default 25).
	RolloutLen int
	// EvalSteps is the number of real-environment steps used to evaluate
	// the policy after each iteration (default 25).
	EvalSteps int
	// PolicyEpisodes caps the inner policy-optimisation loop per
	// iteration (default 60).
	PolicyEpisodes int
	// PlateauPatience stops the inner loop early when the best smoothed
	// synthetic return has not improved for this many episodes
	// (default 15; 0 disables plateau detection).
	PlateauPatience int
	// RandomActionFrac is the fraction of synthetic-rollout steps that take
	// a uniformly random simplex action instead of the exploratory policy
	// action (default 0.2). Model rollouts are free, so broad off-policy
	// coverage is cheap — and necessary: parameter noise alone explores a
	// narrow tube around the current policy, and a briefly saturated actor
	// would otherwise never generate the spread-allocation actions the
	// critic must rank.
	RandomActionFrac float64
	// RefinePercentile is Algorithm 1's p (default
	// envmodel.DefaultPercentile). Set Refine to false to bypass
	// refinement entirely (ablation).
	RefinePercentile float64
	// Refine enables the Lend–Giveback model refinement (default true via
	// NewAgent; the ablation switches it off).
	Refine bool
	// ResetHook, when non-nil, runs immediately after every environment
	// reset during real-data collection. The experiment harness uses it to
	// inject randomly sized request bursts so the collected dataset covers
	// the high-WIP regime that the evaluation bursts (§VI-D) drive the
	// system into — without it, the model and policy would operate far out
	// of distribution under bursts.
	ResetHook func()
	// EvalHook, when non-nil, runs after the reset that starts each policy
	// evaluation. The harness injects a fixed, deterministic burst so the
	// Fig. 6 metric (and the best-policy selection it drives) measures the
	// burst-recovery capability that Figs. 7–8 test, not just steady-state
	// behaviour.
	EvalHook func()
	// Seed drives all randomness.
	Seed int64
	// Recorder, when non-nil, threads structured telemetry through the
	// whole training stack: one info event per outer iteration here, plus
	// debug events per model epoch and per DDPG minibatch update in the
	// components it is wired into. Nil disables telemetry at zero cost.
	Recorder *obs.Recorder
	// CheckpointFn, when non-nil, runs at the end of every outer iteration
	// with a freshly captured TrainState. Returning an error aborts
	// training. The state shares the live dataset, so implementations must
	// serialize it before returning (the checkpoint store does).
	CheckpointFn func(iter int, st *TrainState) error
	// StopFn, when non-nil, is polled at the top of every outer iteration;
	// returning true makes Train stop cleanly with ErrStopped. Combined
	// with CheckpointFn this turns SIGTERM into "finish the iteration,
	// write a final checkpoint, exit".
	StopFn func() bool
	// MaxAbsQ bounds the critic's mean minibatch Q value in the divergence
	// guard: |Q| beyond it counts as divergence and triggers a rollback to
	// the last healthy iteration (default 1e6; negative disables the
	// bound; NaN/Inf weights are always caught).
	MaxAbsQ float64
	// Metrics, when non-nil, receives the self-healing counters
	// miras_controller_rollback_total.
	Metrics *obs.Registry
	// Tracer, when non-nil, emits one span per outer iteration with child
	// spans for the collect / model-fit / policy-improvement / health-guard
	// / evaluate / checkpoint phases, propagated into the components (model
	// fit epochs, DDPG updates, env windows). Nil disables tracing at zero
	// cost.
	Tracer *obs.Tracer
	// Profiler, when non-nil, captures a pprof profile when the health
	// guard rolls the learner back — the anomaly is profiled at the moment
	// it is detected, not when someone reproduces it.
	Profiler *obs.ProfileCapturer
}

func (c Config) withDefaults() Config {
	if c.ModelHidden == nil {
		c.ModelHidden = []int{20, 20, 20}
	}
	if c.ModelEpochs == 0 {
		c.ModelEpochs = 20
	}
	if c.Iterations == 0 {
		c.Iterations = 12
	}
	if c.StepsPerIteration == 0 {
		c.StepsPerIteration = 1000
	}
	if c.ResetEvery == 0 {
		c.ResetEvery = 25
	}
	if c.RolloutLen == 0 {
		c.RolloutLen = 25
	}
	if c.EvalSteps == 0 {
		c.EvalSteps = 25
	}
	if c.PolicyEpisodes == 0 {
		c.PolicyEpisodes = 60
	}
	if c.PlateauPatience == 0 {
		c.PlateauPatience = 15
	}
	if c.RandomActionFrac == 0 {
		c.RandomActionFrac = 0.2
	}
	if c.RandomActionFrac < 0 {
		c.RandomActionFrac = 0
	}
	if c.RefinePercentile == 0 {
		c.RefinePercentile = envmodel.DefaultPercentile
	}
	if c.MaxAbsQ == 0 {
		c.MaxAbsQ = 1e6
	}
	if c.MaxAbsQ < 0 {
		c.MaxAbsQ = 0
	}
	return c
}

// IterationStats summarises one Algorithm 2 outer iteration.
type IterationStats struct {
	// Iteration is the 0-based outer iteration index.
	Iteration int
	// DatasetSize is |D| after this iteration's collection phase.
	DatasetSize int
	// ModelLoss is the model's final-epoch training loss (normalised
	// units).
	ModelLoss float64
	// PolicyEpisodes is how many synthetic episodes the inner loop ran.
	PolicyEpisodes int
	// SyntheticReturn is the best smoothed synthetic episode return.
	SyntheticReturn float64
	// EvalReturn is the aggregated real-environment reward over EvalSteps
	// — the y-axis of Fig. 6.
	EvalReturn float64
	// NoiseSigma is the parameter-noise σ after the iteration.
	NoiseSigma float64
	// RolledBack is true when the divergence guard fired this iteration and
	// the learner was restored from the last healthy iteration.
	RolledBack bool
}

// Agent is the MIRAS model-based RL agent.
type Agent struct {
	cfg     Config
	dataset *envmodel.Dataset
	model   *envmodel.Model
	ddpg    *rl.DDPG
	rng     *rand.Rand
	// src is rng's underlying source; its position is captured in
	// checkpoints so resumed runs draw the same sequence.
	src *sim.SplitMix

	// envLog records every real-environment reset and step so a resumed
	// run can replay them against a freshly built environment, advancing
	// its internal event streams to the exact positions of the
	// interrupted run.
	envLog []EnvOp
	// resume, when non-nil, holds state restored by RestoreTraining that
	// the next Train call consumes to continue mid-run.
	resume    *resumeInfo
	rollbacks int

	trained bool
}

// NewAgent validates cfg and constructs the agent (untrained).
func NewAgent(cfg Config) (*Agent, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("core: Env is required")
	}
	// Refine defaults to on: a zero-valued Config field can't express
	// "default true", so NewAgent flips it unless the caller used
	// NewAgentNoRefine.
	cfg.Refine = true
	return newAgent(cfg)
}

// NewAgentNoRefine builds an agent whose synthetic environment uses the raw
// model without Lend–Giveback refinement — the §IV-C2 ablation.
func NewAgentNoRefine(cfg Config) (*Agent, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("core: Env is required")
	}
	cfg.Refine = false
	return newAgent(cfg)
}

func newAgent(cfg Config) (*Agent, error) {
	// Zero means "use the default"; a negative count has no meaning and
	// would otherwise surface as a panic deep inside Train.
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Iterations", cfg.Iterations},
		{"StepsPerIteration", cfg.StepsPerIteration},
		{"PolicyEpisodes", cfg.PolicyEpisodes},
		{"ModelEpochs", cfg.ModelEpochs},
		{"RolloutLen", cfg.RolloutLen},
		{"EvalSteps", cfg.EvalSteps},
		{"ResetEvery", cfg.ResetEvery},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("core: %s must be >= 0 (0 selects the default), got %d", f.name, f.v)
		}
	}
	cfg = cfg.withDefaults()
	j := cfg.Env.StateDim()
	ad := cfg.Env.ActionDim()
	model, err := envmodel.New(envmodel.Config{
		StateDim:  j,
		ActionDim: ad,
		Hidden:    cfg.ModelHidden,
		LR:        cfg.ModelLR,
		Seed:      cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	rlCfg := cfg.RL
	rlCfg.StateDim = j
	rlCfg.ActionDim = ad
	if rlCfg.Seed == 0 {
		rlCfg.Seed = cfg.Seed + 2
	}
	ddpg, err := rl.NewDDPG(rlCfg)
	if err != nil {
		return nil, err
	}
	model.SetRecorder(cfg.Recorder, "model")
	ddpg.SetRecorder(cfg.Recorder)
	model.SetTracer(cfg.Tracer)
	ddpg.SetTracer(cfg.Tracer)
	src := sim.NewSplitMix(uint64(cfg.Seed + 3))
	return &Agent{
		cfg:     cfg,
		dataset: envmodel.NewDataset(j, ad),
		model:   model,
		ddpg:    ddpg,
		rng:     rand.New(src),
		src:     src,
	}, nil
}

// Dataset returns the collected transition dataset D.
func (a *Agent) Dataset() *envmodel.Dataset { return a.dataset }

// Model returns the environment model f̂_Φ.
func (a *Agent) Model() *envmodel.Model { return a.model }

// DDPG returns the underlying policy learner.
func (a *Agent) DDPG() *rl.DDPG { return a.ddpg }

// CollectReal runs `steps` interactions with the real environment, adding
// every transition to D. When random is true, actions are drawn uniformly
// from the simplex (the paper's initial data collection); otherwise the
// current exploratory policy acts. The environment is reset every
// cfg.ResetEvery steps.
func (a *Agent) CollectReal(steps int, random bool) error {
	e := a.cfg.Env
	budget := e.Budget()
	state := e.State()
	for i := 0; i < steps; i++ {
		if i%a.cfg.ResetEvery == 0 {
			state = e.Reset()
			if a.cfg.ResetHook != nil {
				a.cfg.ResetHook()
				state = e.State()
			}
			a.ddpg.BeginEpisode()
			a.envLog = append(a.envLog, EnvOp{Kind: opResetCollect})
		}
		var simplex []float64
		if random {
			simplex = env.RandomSimplex(e.ActionDim(), a.rng)
		} else {
			simplex = a.ddpg.ActExplore(state)
		}
		m := env.SimplexToAllocation(simplex, budget)
		frac := env.AllocationToSimplex(m, budget)
		res, err := e.Step(m)
		if err != nil {
			return fmt.Errorf("core: collection step %d: %w", i, err)
		}
		a.envLog = append(a.envLog, EnvOp{Kind: opStep, Alloc: m})
		a.dataset.Add(state, frac, res.State)
		state = res.State
	}
	return nil
}

// FitModel retrains the environment model on all collected data
// (Algorithm 2 line 4) and returns the final-epoch loss.
func (a *Agent) FitModel() (float64, error) {
	losses, err := a.model.Fit(a.dataset, a.cfg.ModelEpochs)
	if err != nil {
		return 0, err
	}
	return losses[len(losses)-1], nil
}

// predictor returns the rollout dynamics: refined when cfg.Refine, raw
// otherwise.
func (a *Agent) predictor() (envmodel.Predictor, error) {
	if !a.cfg.Refine {
		return a.model, nil
	}
	return envmodel.NewRefiner(a.model, a.dataset, a.cfg.RefinePercentile, a.rng)
}

// ImprovePolicy runs the inner policy-optimisation loop (Algorithm 2 lines
// 5–8) against the current model, returning the number of episodes run and
// the best smoothed synthetic return.
func (a *Agent) ImprovePolicy() (episodes int, bestReturn float64, err error) {
	pred, err := a.predictor()
	if err != nil {
		return 0, 0, err
	}
	synth, err := envmodel.NewSyntheticEnv(pred, a.dataset, a.cfg.Env.Budget(), a.cfg.RolloutLen, a.rng)
	if err != nil {
		return 0, 0, err
	}
	const smooth = 0.3 // EWMA factor for plateau detection
	// Episode returns vary wildly with the sampled initial state (bursty
	// vs calm), so early stopping only arms after a warm-up: a lucky first
	// episode must not freeze the "best" and end training immediately.
	warmup := a.cfg.PolicyEpisodes / 2
	var ewma float64
	best := math.Inf(-1)
	sinceBest := 0
	for ep := 0; ep < a.cfg.PolicyEpisodes; ep++ {
		a.ddpg.BeginEpisode()
		state := synth.Reset()
		var epReturn float64
		for {
			var action []float64
			if a.rng.Float64() < a.cfg.RandomActionFrac {
				action = env.RandomSimplex(synth.ActionDim(), a.rng)
			} else {
				action = a.ddpg.ActExplore(state)
			}
			next, reward, done := synth.Step(action)
			a.ddpg.Observe(rl.Experience{
				State: state, Action: action, Next: next, Reward: reward, Done: done,
			})
			a.ddpg.Update()
			epReturn += reward
			state = next
			if done {
				break
			}
		}
		if ep == 0 {
			ewma = epReturn
		} else {
			ewma = smooth*epReturn + (1-smooth)*ewma
		}
		episodes++
		if ewma > best {
			best = ewma
			sinceBest = 0
		} else {
			sinceBest++
			if a.cfg.PlateauPatience > 0 && ep >= warmup && sinceBest >= a.cfg.PlateauPatience {
				break // performance of the policy stopped improving
			}
		}
	}
	return episodes, best, nil
}

// Evaluate resets the real environment and runs the deterministic policy
// for cfg.EvalSteps windows, returning the aggregated reward (the Fig. 6
// metric).
func (a *Agent) Evaluate() (float64, error) {
	e := a.cfg.Env
	state := e.Reset()
	if a.cfg.EvalHook != nil {
		a.cfg.EvalHook()
		state = e.State()
	}
	a.envLog = append(a.envLog, EnvOp{Kind: opResetEval})
	var total float64
	for i := 0; i < a.cfg.EvalSteps; i++ {
		simplex := a.ddpg.Act(state)
		m := env.SimplexToAllocation(simplex, e.Budget())
		res, err := e.Step(m)
		if err != nil {
			return 0, fmt.Errorf("core: eval step %d: %w", i, err)
		}
		a.envLog = append(a.envLog, EnvOp{Kind: opStep, Alloc: m})
		total += res.Reward
		state = res.State
	}
	return total, nil
}

// healthyState is the in-memory rollback point the divergence guard
// restores from: learner state only. The dataset is always-finite real
// data and the environment never diverges, so neither is rolled back.
type healthyState struct {
	agent *rl.AgentState
	model *envmodel.ModelState
}

// checkHealth probes the learner for numeric divergence. It runs after
// policy improvement and before evaluation, so a diverged actor never
// emits NaN allocations into the real environment.
func (a *Agent) checkHealth() error {
	if err := a.ddpg.CheckHealth(a.cfg.MaxAbsQ); err != nil {
		return err
	}
	return a.model.CheckHealth()
}

func (a *Agent) captureHealthy() healthyState {
	return healthyState{agent: a.ddpg.State(), model: a.model.State()}
}

// Rollbacks returns how many times the divergence guard restored the
// learner from the last healthy iteration during Train.
func (a *Agent) Rollbacks() int { return a.rollbacks }

// Train runs the full Algorithm 2 loop and returns per-iteration
// statistics. The first iteration collects with random actions (no useful
// policy exists yet); subsequent iterations collect with the exploratory
// policy, targeting regions the improving policy actually visits (§IV-E).
// On completion the policy is rolled back to the iteration with the best
// real-environment evaluation — Algorithm 2 terminates on "the policy
// performs well in real environment", so the deployed policy is the one
// that did.
//
// Each iteration the divergence guard (Config.MaxAbsQ) checks the learner
// after policy improvement; on divergence the DDPG agent and the
// environment model are restored from the last healthy iteration and the
// loop continues, so one blown update does not destroy a long run.
//
// When the agent was primed by RestoreTraining, Train continues from the
// checkpointed iteration instead of starting over; the returned stats
// include the iterations completed before the interruption.
func (a *Agent) Train() ([]IterationStats, error) {
	stats := make([]IterationStats, 0, a.cfg.Iterations)
	bestReturn := math.Inf(-1)
	var bestActor *nn.Network
	startIter := 0
	if a.resume != nil {
		startIter = a.resume.iter
		stats = append(stats, a.resume.stats...)
		if a.resume.hasBest {
			bestReturn = a.resume.bestReturn
			bestActor = a.resume.bestActor
		}
		a.resume = nil
	}
	lastHealthy := a.captureHealthy()
	for iter := startIter; iter < a.cfg.Iterations; iter++ {
		if a.cfg.StopFn != nil && a.cfg.StopFn() {
			return stats, ErrStopped
		}
		// One span per Algorithm 2 outer iteration; the phase spans below
		// (and the env-window / model-epoch / DDPG-update spans inside the
		// components) parent under it via the tracer's ambient parent.
		iterSpan := a.cfg.Tracer.Start("train.iteration").Int("iteration", iter)
		restoreParent := a.cfg.Tracer.SetParent(iterSpan)
		collectSpan := a.cfg.Tracer.Start("train.collect").Int("steps", a.cfg.StepsPerIteration)
		if err := a.CollectReal(a.cfg.StepsPerIteration, iter == 0); err != nil {
			restoreParent()
			return stats, err
		}
		collectSpan.Int("dataset", a.dataset.Len()).End()
		fitSpan := a.cfg.Tracer.Start("train.fit_model")
		loss, err := a.FitModel()
		if err != nil {
			restoreParent()
			return stats, err
		}
		fitSpan.F64("loss", loss).End()
		improveSpan := a.cfg.Tracer.Start("train.improve_policy")
		episodes, synthReturn, err := a.ImprovePolicy()
		if err != nil {
			restoreParent()
			return stats, err
		}
		improveSpan.Int("episodes", episodes).F64("synthetic_return", synthReturn).End()
		rolledBack := false
		guardSpan := a.cfg.Tracer.Start("train.health_guard")
		if herr := a.checkHealth(); herr != nil {
			if err := a.ddpg.Restore(lastHealthy.agent); err != nil {
				restoreParent()
				return stats, fmt.Errorf("core: rollback after divergence (%v): %w", herr, err)
			}
			if err := a.model.Restore(lastHealthy.model); err != nil {
				restoreParent()
				return stats, fmt.Errorf("core: rollback after divergence (%v): %w", herr, err)
			}
			a.rollbacks++
			rolledBack = true
			if a.cfg.Metrics != nil {
				a.cfg.Metrics.Counter("miras_controller_rollback_total",
					"Training rollbacks to the last healthy checkpoint after learner divergence.").Inc()
			}
			if ev := a.cfg.Recorder.Event("rollback"); ev != nil {
				ev.Int("iteration", iter).Str("cause", herr.Error()).Emit()
			}
			guardSpan.Bool("rolled_back", true).Str("cause", herr.Error())
			a.cfg.Profiler.Trigger("divergence_rollback")
		} else {
			lastHealthy = a.captureHealthy()
			guardSpan.Bool("rolled_back", false)
		}
		guardSpan.End()
		evalSpan := a.cfg.Tracer.Start("train.evaluate")
		evalReturn, err := a.Evaluate()
		if err != nil {
			restoreParent()
			return stats, err
		}
		evalSpan.F64("eval_return", evalReturn).End()
		if evalReturn > bestReturn {
			bestReturn = evalReturn
			bestActor = a.ddpg.Actor().Clone()
		}
		stats = append(stats, IterationStats{
			Iteration:       iter,
			DatasetSize:     a.dataset.Len(),
			ModelLoss:       loss,
			PolicyEpisodes:  episodes,
			SyntheticReturn: synthReturn,
			EvalReturn:      evalReturn,
			NoiseSigma:      a.ddpg.NoiseSigma(),
			RolledBack:      rolledBack,
		})
		// One event per Algorithm 2 outer iteration — the Fig. 6 trace.
		if ev := a.cfg.Recorder.Event("iteration"); ev != nil {
			ev.Int("iteration", iter).
				Int("dataset", a.dataset.Len()).
				F64("model_loss", loss).
				Int("policy_episodes", episodes).
				F64("synthetic_return", synthReturn).
				F64("eval_return", evalReturn).
				F64("noise_sigma", a.ddpg.NoiseSigma()).
				Uint("ddpg_updates", a.ddpg.Updates()).
				Emit()
		}
		if a.cfg.CheckpointFn != nil {
			ckptSpan := a.cfg.Tracer.Start("train.checkpoint")
			st := a.trainState(iter+1, stats, bestReturn, bestActor)
			if err := a.cfg.CheckpointFn(iter, st); err != nil {
				restoreParent()
				return stats, fmt.Errorf("core: checkpoint after iteration %d: %w", iter, err)
			}
			ckptSpan.End()
		}
		restoreParent()
		iterSpan.Bool("rolled_back", rolledBack).End()
	}
	if bestActor != nil {
		a.ddpg.RestoreActorParams(bestActor)
	}
	a.trained = true
	return stats, nil
}

// Controller wraps the trained policy as an env.Controller usable in the
// comparison experiments (Figs. 7–8). The controller is deterministic.
func (a *Agent) Controller() env.Controller {
	return &policyController{agent: a.ddpg, budget: a.cfg.Env.Budget()}
}

// policyController adapts a DDPG actor to the Controller interface.
type policyController struct {
	agent  *rl.DDPG
	budget int
}

// Compile-time interface check.
var _ env.Controller = (*policyController)(nil)

func (p *policyController) Name() string { return "miras" }

func (p *policyController) Decide(prev env.StepResult) []int {
	return env.SimplexToAllocation(p.agent.Act(prev.State), p.budget)
}

func (p *policyController) Reset() {}

// Snapshot freezes the trained policy (actor + normaliser statistics) for
// deployment or later reuse.
func (a *Agent) Snapshot() *rl.PolicySnapshot { return a.ddpg.Snapshot() }

// SnapshotController wraps a frozen policy snapshot as an env.Controller,
// so a policy trained in one process can control a system in another.
type SnapshotController struct {
	snapshot *rl.PolicySnapshot
	budget   int
}

// Compile-time interface check.
var _ env.Controller = (*SnapshotController)(nil)

// NewSnapshotController validates the snapshot against the budget and
// wraps it.
func NewSnapshotController(s *rl.PolicySnapshot, budget int) (*SnapshotController, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil policy snapshot")
	}
	if budget <= 0 {
		return nil, fmt.Errorf("core: budget %d must be positive", budget)
	}
	return &SnapshotController{snapshot: s, budget: budget}, nil
}

// Name implements env.Controller.
func (s *SnapshotController) Name() string { return "miras" }

// Decide implements env.Controller.
func (s *SnapshotController) Decide(prev env.StepResult) []int {
	return env.SimplexToAllocation(s.snapshot.Act(prev.State), s.budget)
}

// Reset implements env.Controller.
func (s *SnapshotController) Reset() {}
