package experiments

import (
	"fmt"

	"miras/internal/baselines"
	"miras/internal/core"
	"miras/internal/env"
	"miras/internal/metrics"
	"miras/internal/rl"
	"miras/internal/trace"
	"miras/internal/workflow"
	"miras/internal/workload"
)

// WindowLengthResult reports the §VI-A2 window-length trade-off: per
// candidate window length, the mean response time of a burst run under two
// fixed reactive controllers. Short windows make rate estimates noisy and
// churn containers against the 5–10 s start-up delay (DRS, whose EWMA rate
// estimator flaps, suffers most); long windows react too slowly.
type WindowLengthResult struct {
	// WindowSec lists the candidate lengths (the paper tested 5, 15, 30).
	WindowSec []float64
	// MeanDelay is the burst run's mean response time per candidate under
	// MONAD (kept for backward compatibility with the Table's first
	// series).
	MeanDelay []float64
	// MeanDelayDRS is the same under DRS.
	MeanDelayDRS []float64
	// Table renders the pairs.
	Table trace.Table
}

// WindowLengthAblation reproduces the §VI-A2 trade-off study.
func WindowLengthAblation(s Setup, windows []float64) (*WindowLengthResult, error) {
	if len(windows) == 0 {
		windows = []float64{5, 15, 30}
	}
	bursts, err := paperOrFallbackBursts(s)
	if err != nil {
		return nil, err
	}
	res := &WindowLengthResult{WindowSec: append([]float64(nil), windows...)}
	for _, w := range windows {
		sw := s
		sw.WindowSec = w
		// Equal total virtual time across window lengths.
		sw.CompareWindows = int(float64(s.CompareWindows) * s.WindowSec / w)
		meanDelay := func(ctrl env.Controller) (float64, error) {
			h, err := scenario(sw, 300, bursts[0], nil)
			if err != nil {
				return 0, err
			}
			o, err := play(h, ctrl, sw.CompareWindows)
			return metrics.Mean(o.Delays), err
		}
		monad, err := meanDelay(baselines.NewMONAD(sw.Budget, sw.WindowSec))
		if err != nil {
			return nil, err
		}
		drs, err := meanDelay(baselines.NewDRS(sw.Budget, sw.WindowSec))
		if err != nil {
			return nil, err
		}
		res.MeanDelay = append(res.MeanDelay, monad)
		res.MeanDelayDRS = append(res.MeanDelayDRS, drs)
	}
	res.Table = trace.Table{
		Title:  fmt.Sprintf("ablation-window-%s", s.EnsembleName),
		XLabel: "window length (s)",
		YLabel: "mean response time (s)",
		X:      res.WindowSec,
	}
	res.Table.AddSeries("monad", res.MeanDelay)
	res.Table.AddSeries("stream", res.MeanDelayDRS)
	return res, nil
}

// NoiseAblationResult compares parameter-space vs action-space exploration
// (§IV-D): training traces for each and the final evaluation returns.
type NoiseAblationResult struct {
	Table trace.Table
	// FinalParam and FinalAction are the last-iteration eval returns.
	FinalParam, FinalAction float64
	// BestParam and BestAction are the best-iteration eval returns — the
	// policy each variant would deploy (Train keeps the best), and a much
	// less noisy comparison statistic than the final iteration.
	BestParam, BestAction float64
	// RawViolationRate is the fraction of action-space-noise exploration
	// samples that violated the simplex constraint before projection —
	// the paper's §IV-D "invalid exploration" rate. Parameter noise has no
	// such failure mode: its rate is 0 by construction.
	RawViolationRate float64
}

// NoiseAblation trains two MIRAS agents differing only in exploration
// mechanism and reports their Fig. 6-style traces.
func NoiseAblation(s Setup) (*NoiseAblationResult, error) {
	run := func(kind rl.ExplorationKind, offset int64) ([]float64, *core.Agent, error) {
		h, err := BuildHarness(s, 400+offset)
		if err != nil {
			return nil, nil, err
		}
		cfg := mirasConfig(s, h, newTrainBursts(s, h))
		cfg.RL.Exploration = kind
		agent, err := core.NewAgent(cfg)
		if err != nil {
			return nil, nil, err
		}
		stats, err := agent.Train()
		if err != nil {
			return nil, nil, err
		}
		out := make([]float64, len(stats))
		for i, st := range stats {
			out[i] = st.EvalReturn
		}
		return out, agent, nil
	}
	param, _, err := run(rl.ParamSpaceNoise, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: param-noise run: %w", err)
	}
	action, actionAgent, err := run(rl.ActionSpaceNoise, 0) // same harness seed: paired comparison
	if err != nil {
		return nil, fmt.Errorf("experiments: action-noise run: %w", err)
	}
	res := &NoiseAblationResult{
		FinalParam:  param[len(param)-1],
		FinalAction: action[len(action)-1],
		BestParam:   metrics.Max(param),
		BestAction:  metrics.Max(action),
	}
	if violations, total := actionAgent.DDPG().RawNoiseViolations(); total > 0 {
		res.RawViolationRate = float64(violations) / float64(total)
	}
	res.Table = trace.Table{
		Title:  fmt.Sprintf("ablation-noise-%s", s.EnsembleName),
		XLabel: "iteration",
		YLabel: "aggregated eval reward",
	}
	res.Table.AddSeries("param-noise", param)
	res.Table.AddSeries("action-noise", action)
	return res, nil
}

// RefinementAblationResult compares training with and without the
// Lend–Giveback model refinement (§IV-C2).
type RefinementAblationResult struct {
	Table trace.Table
	// FinalRefined and FinalRaw are the last-iteration eval returns.
	FinalRefined, FinalRaw float64
	// BestRefined and BestRaw are the best-iteration eval returns (the
	// deployed policies; see NoiseAblationResult).
	BestRefined, BestRaw float64
}

// RefinementAblation trains MIRAS with the refined model and with the raw
// model and reports both traces.
func RefinementAblation(s Setup) (*RefinementAblationResult, error) {
	run := func(rawModel bool) ([]float64, error) {
		h, err := BuildHarness(s, 500)
		if err != nil {
			return nil, err
		}
		cfg := mirasConfig(s, h, newTrainBursts(s, h))
		cfg.RawModel = rawModel
		agent, err := core.NewAgent(cfg)
		if err != nil {
			return nil, err
		}
		stats, err := agent.Train()
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(stats))
		for i, st := range stats {
			out[i] = st.EvalReturn
		}
		return out, nil
	}
	refined, err := run(false) // Lend–Giveback refinement on, as in the paper
	if err != nil {
		return nil, fmt.Errorf("experiments: refined run: %w", err)
	}
	raw, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("experiments: raw run: %w", err)
	}
	res := &RefinementAblationResult{
		FinalRefined: refined[len(refined)-1],
		FinalRaw:     raw[len(raw)-1],
		BestRefined:  metrics.Max(refined),
		BestRaw:      metrics.Max(raw),
	}
	res.Table = trace.Table{
		Title:  fmt.Sprintf("ablation-refine-%s", s.EnsembleName),
		XLabel: "iteration",
		YLabel: "aggregated eval reward",
	}
	res.Table.AddSeries("refined", refined)
	res.Table.AddSeries("raw-model", raw)
	return res, nil
}

// SampleEfficiencyResult compares MIRAS and model-free DDPG evaluation
// returns at the same real-interaction budget — the paper's core
// sample-complexity claim.
type SampleEfficiencyResult struct {
	// Interactions is the shared real-environment interaction budget.
	Interactions int
	// MIRASReturn and ModelFreeReturn are mean evaluation returns over
	// Episodes evaluation episodes.
	MIRASReturn, ModelFreeReturn float64
	// Episodes is the number of evaluation episodes averaged.
	Episodes int
}

// SampleEfficiency evaluates the two trained controllers on fresh
// environments for several episodes each.
func SampleEfficiency(s Setup, trained *Trained, episodes int) (*SampleEfficiencyResult, error) {
	if trained == nil {
		return nil, fmt.Errorf("experiments: trained controllers required")
	}
	if episodes <= 0 {
		episodes = 3
	}
	// Both controllers see the same harness seeds: paired episodes.
	evalReturn := func(ctrl env.Controller) (float64, error) {
		var total float64
		for ep := 0; ep < episodes; ep++ {
			h, err := scenario(s, 600+int64(ep), nil, nil)
			if err != nil {
				return 0, err
			}
			o, err := play(h, ctrl, s.EvalSteps)
			if err != nil {
				return 0, err
			}
			// One running sum over every window of every episode, not a
			// sum of per-episode returns: the rounding of a single pass.
			for _, r := range o.Rewards {
				total += r
			}
		}
		return total / float64(episodes), nil
	}
	mirasRet, err := evalReturn(trained.MIRAS)
	if err != nil {
		return nil, err
	}
	mfRet, err := evalReturn(trained.ModelFree)
	if err != nil {
		return nil, err
	}
	return &SampleEfficiencyResult{
		Interactions:    s.Iterations * s.StepsPerIteration,
		MIRASReturn:     mirasRet,
		ModelFreeReturn: mfRet,
		Episodes:        episodes,
	}, nil
}

// paperOrFallbackBursts returns the paper bursts for msd/ligo, or a small
// synthetic burst for other ensembles (tests).
func paperOrFallbackBursts(s Setup) ([][]int, error) {
	if s.EnsembleName == "msd" || s.EnsembleName == "ligo" {
		return workload.PaperBursts(s.EnsembleName)
	}
	ens, ok := workflow.ByName(s.EnsembleName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown ensemble %q", s.EnsembleName)
	}
	burst := make([]int, ens.NumWorkflows())
	for i := range burst {
		burst[i] = 20
	}
	return [][]int{burst}, nil
}

// DynamicLoad runs the named controllers for s.CompareWindows windows under
// sine-modulated background load with the given relative depth and no
// burst — the "dynamic workloads" stressor beyond one-shot bursts.
func DynamicLoad(s Setup, algorithms []string, trained *Trained, depth float64) (*Comparison, error) {
	c, err := compareOn(s, algorithms, trained, 700, nil, func(h *Harness) error {
		mod, err := workload.NewModulator(h.Generator, h.Engine, workload.Sine,
			10*s.WindowSec, depth, s.WindowSec/3)
		if err != nil {
			return err
		}
		mod.Start()
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	c.Table.Title = fmt.Sprintf("dynamic-load-%s", s.EnsembleName)
	return c, nil
}
