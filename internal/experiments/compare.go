package experiments

import (
	"fmt"

	"miras/internal/baselines"
	"miras/internal/env"
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

// CompareResult is one Figs. 7/8 panel: per-algorithm response-time traces
// under one burst scenario, with summary statistics.
type CompareResult struct {
	// Table holds one response-time series per algorithm.
	Table trace.Table
	// Burst is the injected request counts per workflow type.
	Burst []int
	// AUC sums each algorithm's response-time trace (lower = faster
	// recovery overall, *given comparable completion counts*).
	AUC map[string]float64
	// TailMean averages the last quarter of each trace (the paper's
	// "long-term returns" comparison).
	TailMean map[string]float64
	// Completed counts workflow requests each algorithm finished during
	// the run. A per-window mean delay of 0 is meaningless when nothing
	// completed, so rankings must read Completed first.
	Completed map[string]int
	// OverallMeanDelay is the completion-weighted mean response time over
	// the whole run (0 if nothing completed).
	OverallMeanDelay map[string]float64
	// WorkflowTables breaks each algorithm's trace down by workflow type —
	// the per-workflow view behind §VI-D's observation that MIRAS defers
	// Coire-terminated workflows under large LIGO bursts and recovers
	// later. One table per algorithm; one series per workflow type.
	WorkflowTables map[string]*trace.Table
}

// Best returns the winning algorithm: among those that completed at least
// 90% of the maximum completion count, the one with the lowest overall
// mean delay. This guards against declaring a starving policy "fast".
func (r *CompareResult) Best() string {
	maxDone := 0
	for _, done := range r.Completed {
		if done > maxDone {
			maxDone = done
		}
	}
	best, bestDelay := "", 0.0
	for name, done := range r.Completed {
		if maxDone > 0 && done*10 < maxDone*9 {
			continue
		}
		d := r.OverallMeanDelay[name]
		if best == "" || d < bestDelay {
			best, bestDelay = name, d
		}
	}
	return best
}

// Compare runs one burst scenario: every algorithm gets a fresh environment
// built from the same seed (identical background arrival trace), the burst
// is injected at time zero, and the controller runs for s.CompareWindows
// windows. The recorded series is the mean response time of workflow
// requests completed in each window — the y-axis of Figs. 7–8.
func Compare(s Setup, burst []int, algorithms []string, trained *Trained) (*CompareResult, error) {
	ens, ok := workflow.ByName(s.EnsembleName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown ensemble %q", s.EnsembleName)
	}
	res := &CompareResult{
		Burst:            append([]int(nil), burst...),
		AUC:              make(map[string]float64),
		TailMean:         make(map[string]float64),
		Completed:        make(map[string]int),
		OverallMeanDelay: make(map[string]float64),
		WorkflowTables:   make(map[string]*trace.Table),
	}
	res.Table = trace.Table{
		Title:  fmt.Sprintf("compare-%s", s.EnsembleName),
		XLabel: "window",
		YLabel: "mean response time (s)",
	}
	for _, name := range algorithms {
		ctrl, err := controllerByName(name, s, ens, trained)
		if err != nil {
			return nil, err
		}
		series, byWF, completed, overall, err := runScenarioDetailed(s, burst, ctrl, ens)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %s/%s: %w", s.EnsembleName, name, err)
		}
		res.Table.AddSeries(name, series)
		res.AUC[name] = metrics.AUC(series)
		res.TailMean[name] = metrics.TailMean(series, 0.25)
		res.Completed[name] = completed
		res.OverallMeanDelay[name] = overall
		res.WorkflowTables[name] = byWF
	}
	return res, nil
}

// runScenario executes one (algorithm, burst) run and returns the
// per-window mean response-time series.
func runScenario(s Setup, burst []int, ctrl env.Controller) ([]float64, error) {
	series, _, _, err := runScenarioFull(s, burst, ctrl)
	return series, err
}

// runScenarioFull also reports the total completion count and the
// completion-weighted mean delay over the run.
func runScenarioFull(s Setup, burst []int, ctrl env.Controller) (series []float64, completed int, overallMeanDelay float64, err error) {
	series, _, completed, overallMeanDelay, err = runScenarioDetailed(s, burst, ctrl, nil)
	return series, completed, overallMeanDelay, err
}

// runScenarioDetailed additionally produces the per-workflow-type delay
// table when ens is non-nil.
func runScenarioDetailed(s Setup, burst []int, ctrl env.Controller, ens *workflow.Ensemble) (series []float64, byWF *trace.Table, completed int, overallMeanDelay float64, err error) {
	// Identical seed offset for every algorithm: paired arrival traces.
	h, err := BuildHarness(s, 300)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if err := h.Env.InjectBurst(burst); err != nil {
		return nil, nil, 0, 0, err
	}
	ctrl.Reset()
	results, err := env.Run(h.Env, ctrl, s.CompareWindows)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	series = make([]float64, len(results))
	var wfSeries [][]float64
	if ens != nil {
		wfSeries = make([][]float64, ens.NumWorkflows())
		for i := range wfSeries {
			wfSeries[i] = make([]float64, len(results))
		}
	}
	var delaySum float64
	for i, r := range results {
		series[i] = r.Stats.MeanDelay()
		if ens != nil {
			for wi, d := range r.Stats.MeanDelayByWorkflow(ens.NumWorkflows()) {
				wfSeries[wi][i] = d
			}
		}
		for _, c := range r.Stats.Completions {
			delaySum += c.Delay()
			completed++
		}
	}
	if completed > 0 {
		overallMeanDelay = delaySum / float64(completed)
	}
	if ens != nil {
		byWF = &trace.Table{
			Title:  fmt.Sprintf("%s-%s-byworkflow", s.EnsembleName, ctrl.Name()),
			XLabel: "window",
			YLabel: "mean response time (s)",
		}
		for wi, name := range ens.WorkflowNames() {
			byWF.AddSeries(name, wfSeries[wi])
		}
	}
	return series, byWF, completed, overallMeanDelay, nil
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
