// Package experiments contains one driver per figure of the paper's
// evaluation (§VI) plus the ablations called out in DESIGN.md:
//
//	Fig. 5 — ModelAccuracy: predictive-model accuracy traces;
//	Fig. 6 — TrainingTrace: MIRAS policy-training convergence;
//	Figs. 7/8 — Compare / CompareAll: burst-response comparison of
//	  miras / stream(DRS) / heft / monad / rl(model-free DDPG);
//	ablations — window length, exploration noise, model refinement,
//	  sample efficiency.
//
// Every driver is parameterised by a Setup, with two presets: PaperSetup
// reproduces the paper's scales (§VI-A), QuickSetup shrinks everything so
// the full suite runs in seconds for tests and benchmarks.
package experiments

import (
	"fmt"
	"math/rand"

	"miras/internal/cluster"
	"miras/internal/env"
	"miras/internal/faults"
	"miras/internal/obs"
	"miras/internal/sim"
	"miras/internal/workflow"
	"miras/internal/workload"
)

// Setup bundles every knob an experiment needs for one ensemble.
type Setup struct {
	// EnsembleName selects "msd" or "ligo" (or "toy" for tests).
	EnsembleName string
	// Budget is the consumer constraint C (§VI-A4: 14 MSD, 30 LIGO).
	Budget int
	// WindowSec is the control window (§VI-A2: 30 s).
	WindowSec float64
	// Rates are the background Poisson rates per workflow type.
	Rates []float64
	// CollectSteps is the number of random-action transitions gathered
	// for model evaluation (§VI-B: 14 000 MSD, 37 000 LIGO).
	CollectSteps int
	// TestPoints is the held-out trace length (§VI-B: 100).
	TestPoints int
	// ActionHold is how many test steps each random action is held for
	// (§VI-B: 4).
	ActionHold int
	// StepsPerIteration, ResetEvery, RolloutLen, EvalSteps mirror
	// core.Config (§VI-A3).
	StepsPerIteration int
	ResetEvery        int
	RolloutLen        int
	EvalSteps         int
	// Iterations is the number of Algorithm 2 outer iterations.
	Iterations int
	// PolicyEpisodes and ModelEpochs bound the per-iteration work.
	PolicyEpisodes int
	ModelEpochs    int
	// ModelHidden and RLHidden are the network sizes (§VI-A3).
	ModelHidden []int
	RLHidden    []int
	// CompareWindows is the length of each Figs. 7/8 trace.
	CompareWindows int
	// TrainBurstMax bounds the randomly sized bursts injected after
	// collection resets (per workflow type); nil disables training bursts.
	// Without them the dataset never visits the high-WIP regime the
	// §VI-D evaluation bursts create.
	TrainBurstMax []int
	// Seed roots all randomness.
	Seed int64
	// Tracer, when non-nil, is threaded into every harness this Setup
	// builds (cluster scaling, env windows, fault episodes) and into the
	// training agents (Algorithm 2 iterations with phase children, model
	// fits, DDPG updates): spans and — through its Profiler —
	// divergence-rollback profiles. BuildHarness points the tracer's clock
	// at the harness engine so spans carry virtual timestamps; with SimTime
	// set, seeded traces are byte-identical across runs. A tracer is
	// single-goroutine, so BudgetSweep's fan-out runs in index order when
	// one is set. The CLI populates it from -trace-out (and -profile-dir);
	// nil disables telemetry at zero cost.
	Tracer *obs.Tracer
}

// PaperSetup returns the paper-faithful configuration for "msd" or "ligo"
// (§VI-A). Full-paper scale takes minutes of CPU per experiment.
func PaperSetup(ensemble string) (Setup, error) {
	switch ensemble {
	case "msd":
		return Setup{
			EnsembleName:      "msd",
			Budget:            14,
			WindowSec:         30,
			Rates:             []float64{0.10, 0.10, 0.10},
			CollectSteps:      14000,
			TestPoints:        100,
			ActionHold:        4,
			StepsPerIteration: 1000,
			ResetEvery:        25,
			RolloutLen:        25,
			EvalSteps:         25,
			Iterations:        12,
			PolicyEpisodes:    80,
			ModelEpochs:       20,
			ModelHidden:       []int{20, 20, 20},
			RLHidden:          []int{256, 256, 256},
			CompareWindows:    40,
			TrainBurstMax:     []int{1000, 500, 500},
			Seed:              1,
		}, nil
	case "ligo":
		return Setup{
			EnsembleName:      "ligo",
			Budget:            30,
			WindowSec:         30,
			Rates:             []float64{0.03, 0.02, 0.015, 0.015},
			CollectSteps:      37000,
			TestPoints:        100,
			ActionHold:        4,
			StepsPerIteration: 2000,
			ResetEvery:        25,
			RolloutLen:        10,
			EvalSteps:         100,
			Iterations:        12,
			PolicyEpisodes:    80,
			ModelEpochs:       20,
			ModelHidden:       []int{20},
			RLHidden:          []int{512, 512, 512},
			CompareWindows:    40,
			TrainBurstMax:     []int{150, 150, 80, 80},
			Seed:              2,
		}, nil
	default:
		return Setup{}, fmt.Errorf("experiments: no paper setup for ensemble %q", ensemble)
	}
}

// QuickSetup returns a shrunk configuration with the same structure, small
// enough for CI tests and benchmarks: the emulation, algorithms, and
// figures are exercised end-to-end but with small networks and few steps.
func QuickSetup(ensemble string) (Setup, error) {
	s, err := PaperSetup(ensemble)
	if err != nil {
		return Setup{}, err
	}
	s.CollectSteps = 400
	s.TestPoints = 40
	s.StepsPerIteration = 100
	s.Iterations = 3
	s.PolicyEpisodes = 12
	s.ModelEpochs = 8
	s.ModelHidden = []int{16}
	s.RLHidden = []int{24, 24}
	s.EvalSteps = 12
	s.RolloutLen = 10
	s.CompareWindows = 20
	scaled := make([]int, len(s.TrainBurstMax))
	for i, v := range s.TrainBurstMax {
		scaled[i] = v / 4
	}
	s.TrainBurstMax = scaled
	return s, nil
}

// MediumSetup returns an intermediate configuration: large enough for the
// learning dynamics to show the paper's shape (model improves, policy
// converges, MIRAS beats the baselines), small enough to finish in a few
// minutes of CPU. It is the recommended default for local reproduction.
func MediumSetup(ensemble string) (Setup, error) {
	s, err := PaperSetup(ensemble)
	if err != nil {
		return Setup{}, err
	}
	s.CollectSteps /= 4
	s.StepsPerIteration /= 2
	s.Iterations = 10
	s.PolicyEpisodes = 80
	s.ModelEpochs = 20
	s.RLHidden = []int{64, 64, 64}
	if ensemble == "ligo" {
		// The paper's single 20-unit LIGO model (§VI-A3, an overfitting
		// workaround for absolute-state regression on their trace) badly
		// underfits the 9-service coupling under delta regression; medium
		// scale gives it the capacity the data supports.
		s.ModelHidden = []int{32, 32}
		s.ModelEpochs = 30
		s.RolloutLen = 15
	}
	return s, nil
}

// trainBursts draws the collection-reset bursts bounded by
// Setup.TrainBurstMax and counts its draws: replay restores the bursts from
// the env's op log, and a resumed run redraws that many to reposition rng.
type trainBursts struct {
	max   []int // empty disables training bursts
	rng   *rand.Rand
	draws int
}

func newTrainBursts(s Setup, h *Harness) *trainBursts {
	return &trainBursts{max: s.TrainBurstMax, rng: h.Streams.Stream("experiments/train-bursts")}
}

// draw returns the next burst, or nil when this reset gets none.
func (b *trainBursts) draw() []int {
	b.draws++
	if b.rng.Float64() < 0.5 {
		return nil
	}
	counts := make([]int, len(b.max))
	for i, m := range b.max {
		counts[i] = b.rng.Intn(m + 1)
	}
	return counts
}

// hook returns the ResetHook bursting into e's op log, or nil if disabled.
func (b *trainBursts) hook(e *env.Env) func() {
	if len(b.max) == 0 {
		return nil
	}
	return func() {
		if counts := b.draw(); counts != nil {
			_ = e.InjectBurst(counts) // arity fixed by the setup
		}
	}
}

// trainBurstHook returns a fresh trainBursts' hook over h.
func trainBurstHook(s Setup, h *Harness) func() { return newTrainBursts(s, h).hook(h.Env) }

// evalBurstHook returns a function injecting a fixed burst of half the
// training maxima — the deterministic benchmark scenario behind each
// Fig. 6 evaluation point — or nil when training bursts are disabled.
func evalBurstHook(s Setup, h *Harness) func() {
	if len(s.TrainBurstMax) == 0 {
		return nil
	}
	counts := make([]int, len(s.TrainBurstMax))
	for i, m := range s.TrainBurstMax {
		counts[i] = m / 2
	}
	return func() {
		_ = h.Env.InjectBurst(counts)
	}
}

// Harness is one fully wired real environment: engine, cluster, background
// workload, and windowed env. Every field but Env is one of Env's accessors.
type Harness struct {
	Engine    *sim.Engine
	Streams   *sim.Streams
	Cluster   *cluster.Cluster
	Generator *workload.Generator
	Env       *env.Env
}

// BuildHarness constructs a fresh, fault-free environment for s. seedOffset
// decorrelates harnesses built from the same Setup (e.g. training vs
// evaluation runs); harnesses built with equal (Setup, seedOffset) produce
// identical arrival traces. Background Poisson arrivals are started
// immediately.
func BuildHarness(s Setup, seedOffset int64) (*Harness, error) {
	return buildHarness(s, seedOffset, nil)
}

// buildHarness is BuildHarness with a fault plan armed at construction (the
// chaos experiments); a nil or empty plan leaves the harness bit-for-bit
// identical to a plain one.
func buildHarness(s Setup, seedOffset int64, plan *faults.Plan) (*Harness, error) {
	ens, ok := workflow.ByName(s.EnsembleName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown ensemble %q", s.EnsembleName)
	}
	e, err := env.New(env.Config{
		Cluster:   cluster.Config{Ensemble: ens, Faults: plan},
		Seed:      s.Seed + seedOffset,
		Rates:     s.Rates,
		WindowSec: s.WindowSec,
		Budget:    s.Budget,
		Tracer:    s.Tracer,
	})
	if err != nil {
		return nil, err
	}
	// Spans minted while this harness runs carry its virtual time. Setups
	// build harnesses sequentially (training, then evaluation), so pointing
	// the shared tracer at the newest engine is safe.
	engine := e.Engine()
	s.Tracer.SetClock(func() float64 { return float64(engine.Now()) })
	return &Harness{Engine: engine, Streams: e.Streams(), Cluster: e.Cluster(), Generator: e.Generator(), Env: e}, nil
}
