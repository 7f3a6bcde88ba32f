package experiments

import (
	"fmt"

	"miras/internal/baselines"
	"miras/internal/env"
	"miras/internal/faults"
	"miras/internal/metrics"
	"miras/internal/rl"
	"miras/internal/trace"
	"miras/internal/workflow"
	"miras/internal/workload"
)

// AlgorithmNames lists the five algorithms of Figs. 7–8 in plot order,
// using the paper's labels ("stream" = DRS, "rl" = model-free DDPG).
var AlgorithmNames = []string{"miras", "stream", "heft", "monad", "rl"}

// Trained bundles the two learning-based controllers, trained once and
// reused across burst scenarios exactly as the paper does.
type Trained struct {
	// MIRAS is the trained model-based controller.
	MIRAS env.Controller
	// ModelFree is the DDPG baseline trained with the same number of real
	// interactions.
	ModelFree env.Controller
	// TrainingStats carries the MIRAS Fig. 6 trace from the shared
	// training run.
	TrainingStats *TrainingResult
}

// TrainControllers trains MIRAS (producing the Fig. 6 trace as a
// by-product) and the model-free DDPG baseline at the equal interaction
// budget the paper mandates ("we train DDPG models using the same number
// of interactions with MIRAS").
func TrainControllers(s Setup) (*Trained, error) {
	tr, err := TrainingTrace(s)
	if err != nil {
		return nil, fmt.Errorf("experiments: MIRAS training: %w", err)
	}
	// Same interaction budget: iterations × steps per iteration.
	totalSteps := s.Iterations * s.StepsPerIteration
	h, err := BuildHarness(s, 200)
	if err != nil {
		return nil, err
	}
	mf, err := baselines.TrainModelFree(h.Env, rl.Config{
		Hidden:      s.RLHidden,
		RewardScale: rewardScale(s),
		Seed:        s.Seed + 31,
	}, totalSteps, s.ResetEvery, trainBurstHook(s, h))
	if err != nil {
		return nil, fmt.Errorf("experiments: model-free training: %w", err)
	}
	return &Trained{MIRAS: tr.Agent.Controller(), ModelFree: mf, TrainingStats: tr}, nil
}

// controllerByName instantiates the non-learning controllers fresh per run
// (they are cheap and stateful), and returns the shared trained ones.
func controllerByName(name string, s Setup, ens *workflow.Ensemble, trained *Trained) (env.Controller, error) {
	switch name {
	case "miras":
		if trained == nil || trained.MIRAS == nil {
			return nil, fmt.Errorf("experiments: %q requires trained controllers", name)
		}
		return trained.MIRAS, nil
	case "rl":
		if trained == nil || trained.ModelFree == nil {
			return nil, fmt.Errorf("experiments: %q requires trained controllers", name)
		}
		return trained.ModelFree, nil
	case "stream":
		return baselines.NewDRS(s.Budget, s.WindowSec), nil
	case "heft":
		return baselines.NewHEFT(ens, s.Budget), nil
	case "monad":
		return baselines.NewMONAD(s.Budget, s.WindowSec), nil
	case "static":
		return baselines.NewStatic(ens.NumTasks(), s.Budget), nil
	case "hpa":
		return baselines.NewHPA(s.Budget), nil
	default:
		return nil, fmt.Errorf("experiments: unknown algorithm %q", name)
	}
}

// Outcome is what one controller run under the Figs. 7–8 protocol leaves
// behind, folded once by play.
type Outcome struct {
	// Delays is the mean response time of the workflow requests completed
	// in each window — the y-axis of Figs. 7–8.
	Delays []float64
	// Rewards is each window's Eq. 1 reward.
	Rewards []float64
	// ByWorkflow breaks Delays down by workflow type — the per-workflow
	// view behind §VI-D's observation that MIRAS defers Coire-terminated
	// workflows under large LIGO bursts and recovers later. One series per
	// workflow type.
	ByWorkflow *trace.Table
	// Completed counts the workflow requests finished during the run. A
	// per-window mean delay of 0 is meaningless when nothing completed, so
	// rankings must read Completed first.
	Completed int
	// MeanDelay is the completion-weighted mean response time over the
	// whole run (0 if nothing completed).
	MeanDelay float64
	// Crashed, Redelivered and Dropped are the cluster's cumulative failure
	// counters at the end of the run.
	Crashed, Redelivered, Dropped uint64
}

// Reward is the run's return: Σ Eq. 1 reward over its windows.
func (o Outcome) Reward() float64 {
	var total float64
	for _, r := range o.Rewards {
		total += r
	}
	return total
}

// AUC sums the response-time trace (lower = faster recovery overall,
// *given comparable completion counts*).
func (o Outcome) AUC() float64 { return metrics.AUC(o.Delays) }

// TailMean averages the last quarter of the trace (the paper's "long-term
// returns" comparison).
func (o Outcome) TailMean() float64 { return metrics.TailMean(o.Delays, 0.25) }

// Comparison is several controllers run under one protocol: a response-time
// series per algorithm in run order, and each run's Outcome.
type Comparison struct {
	// Table holds one per-window mean-response-time series per algorithm.
	Table trace.Table
	// Outcomes maps algorithm name to its run.
	Outcomes map[string]Outcome
}

// Best returns the winning algorithm: among those that completed at least
// 90% of the maximum completion count, the one with the lowest overall
// mean delay, ties going to the earlier algorithm in run order. This guards
// against declaring a starving policy "fast".
func (c *Comparison) Best() string {
	maxDone := 0
	for _, o := range c.Outcomes {
		maxDone = max(maxDone, o.Completed)
	}
	best, bestDelay := "", 0.0
	for _, series := range c.Table.Series {
		o := c.Outcomes[series.Name]
		if maxDone > 0 && o.Completed*10 < maxDone*9 {
			continue
		}
		if best == "" || o.MeanDelay < bestDelay {
			best, bestDelay = series.Name, o.MeanDelay
		}
	}
	return best
}

// CompareResult is one Figs. 7/8 panel: per-algorithm response-time traces
// under one burst scenario.
type CompareResult struct {
	Comparison
	// Burst is the injected request counts per workflow type.
	Burst []int
}

// Compare runs one burst scenario: every algorithm gets a fresh environment
// built from the same seed (identical background arrival trace), the burst
// is injected at time zero, and the controller runs for s.CompareWindows
// windows.
func Compare(s Setup, burst []int, algorithms []string, trained *Trained) (*CompareResult, error) {
	c, err := compareOn(s, algorithms, trained, 300, burst, nil, nil)
	if err != nil {
		return nil, err
	}
	c.Table.Title = fmt.Sprintf("compare-%s", s.EnsembleName)
	return &CompareResult{Comparison: *c, Burst: append([]int(nil), burst...)}, nil
}

// compareOn runs each algorithm through the Figs. 7–8 protocol: a fresh
// controller, a fresh harness at seedOffset (identical for every algorithm:
// paired arrival traces, and paired fault processes under a fault plan)
// with plan armed (nil for none) and burst injected at time zero, arm(h)
// when arm is non-nil (periodic stressors that schedule themselves on the
// engine), then s.CompareWindows windows of control.
func compareOn(s Setup, algorithms []string, trained *Trained, seedOffset int64, burst []int,
	arm func(*Harness) error, plan *faults.Plan) (*Comparison, error) {
	ens, ok := workflow.ByName(s.EnsembleName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown ensemble %q", s.EnsembleName)
	}
	c := &Comparison{
		Table:    trace.Table{XLabel: "window", YLabel: "mean response time (s)"},
		Outcomes: make(map[string]Outcome, len(algorithms)),
	}
	for _, name := range algorithms {
		ctrl, err := controllerByName(name, s, ens, trained)
		if err != nil {
			return nil, err
		}
		h, err := scenario(s, seedOffset, burst, plan)
		if err != nil {
			return nil, err
		}
		if arm != nil {
			if err := arm(h); err != nil {
				return nil, err
			}
		}
		o, err := play(h, ctrl, s.CompareWindows)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s: %w", name, s.EnsembleName, err)
		}
		c.Table.AddSeries(name, o.Delays)
		c.Outcomes[name] = o
	}
	return c, nil
}

// scenario builds a fresh harness at seedOffset with plan armed (nil for
// none) and injects burst at time zero when it is non-nil.
func scenario(s Setup, seedOffset int64, burst []int, plan *faults.Plan) (*Harness, error) {
	h, err := buildHarness(s, seedOffset, plan)
	if err != nil {
		return nil, err
	}
	if burst != nil {
		if err := h.Env.InjectBurst(burst); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// play resets ctrl, runs it on h for the given number of windows, and folds
// the window results into an Outcome.
func play(h *Harness, ctrl env.Controller, windows int) (Outcome, error) {
	ctrl.Reset()
	results, err := env.Run(h.Env, ctrl, windows)
	if err != nil {
		return Outcome{}, err
	}
	ens := h.Cluster.Ensemble()
	o := Outcome{
		Delays:  make([]float64, len(results)),
		Rewards: make([]float64, len(results)),
	}
	byWF := make([][]float64, ens.NumWorkflows())
	for i := range byWF {
		byWF[i] = make([]float64, len(results))
	}
	var delaySum float64
	for i, r := range results {
		o.Delays[i] = r.Stats.MeanDelay()
		o.Rewards[i] = r.Reward
		for wi, d := range r.Stats.MeanDelayByWorkflow(ens.NumWorkflows()) {
			byWF[wi][i] = d
		}
		for _, c := range r.Stats.Completions {
			delaySum += c.Delay()
			o.Completed++
		}
	}
	if o.Completed > 0 {
		o.MeanDelay = delaySum / float64(o.Completed)
	}
	o.ByWorkflow = &trace.Table{
		Title:  fmt.Sprintf("%s-%s-byworkflow", ens.Name, ctrl.Name()),
		XLabel: "window",
		YLabel: "mean response time (s)",
	}
	for wi, name := range ens.WorkflowNames() {
		o.ByWorkflow.AddSeries(name, byWF[wi])
	}
	o.Crashed = h.Cluster.Failures()
	o.Redelivered = h.Cluster.Redeliveries()
	o.Dropped = h.Cluster.Dropped()
	return o, nil
}

// CompareAll runs every paper burst scenario for the ensemble (Fig. 7 has
// three MSD panels, Fig. 8 three LIGO panels) with the five paper
// algorithms.
func CompareAll(s Setup, trained *Trained) ([]*CompareResult, error) {
	bursts, err := workload.PaperBursts(s.EnsembleName)
	if err != nil {
		return nil, err
	}
	out := make([]*CompareResult, 0, len(bursts))
	for i, burst := range bursts {
		r, err := Compare(s, burst, AlgorithmNames, trained)
		if err != nil {
			return nil, err
		}
		r.Table.Title = fmt.Sprintf("fig%s-%s-burst%d", figNumber(s.EnsembleName), s.EnsembleName, i+1)
		out = append(out, r)
	}
	return out, nil
}

func figNumber(ensemble string) string {
	if ensemble == "msd" {
		return "7"
	}
	return "8"
}
