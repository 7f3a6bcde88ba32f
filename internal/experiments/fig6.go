package experiments

import (
	"miras/internal/core"
	"miras/internal/rl"
	"miras/internal/trace"
)

// TrainingResult carries a Fig. 6 panel: the MIRAS training trace for one
// ensemble, plus the trained agent for reuse by the comparison experiments
// (the paper likewise reuses the Fig. 6 policies in Figs. 7–8).
type TrainingResult struct {
	// Stats holds one entry per Algorithm 2 outer iteration.
	Stats []core.IterationStats
	// Table plots aggregated evaluation reward per iteration.
	Table trace.Table
	// Agent is the trained MIRAS agent.
	Agent *core.Agent
}

// mirasConfig assembles the core.Config for a setup over a built harness.
func mirasConfig(s Setup, h *Harness, bursts *trainBursts) core.Config {
	return core.Config{
		Env:               h.Env,
		ResetHook:         bursts.hook(h.Env),
		EvalHook:          evalBurstHook(s, h),
		ModelHidden:       s.ModelHidden,
		ModelEpochs:       s.ModelEpochs,
		RL:                rl.Config{Hidden: s.RLHidden, RewardScale: rewardScale(s)},
		Iterations:        s.Iterations,
		StepsPerIteration: s.StepsPerIteration,
		ResetEvery:        s.ResetEvery,
		RolloutLen:        s.RolloutLen,
		EvalSteps:         s.EvalSteps,
		PolicyEpisodes:    s.PolicyEpisodes,
		Seed:              s.Seed + 21,
		Tracer:            s.Tracer,
	}
}

// rewardScale normalises Eq. 1 rewards (≈ −ΣWIP, which scales with the
// ensemble's load) into a range the critic trains stably on.
func rewardScale(s Setup) float64 {
	return 1.0 / float64(10*s.Budget)
}

// TrainingTrace reproduces Fig. 6: run the full Algorithm 2 loop and report
// the per-iteration aggregated evaluation reward. It is TrainingTraceOpts
// without checkpointing.
func TrainingTrace(s Setup) (*TrainingResult, error) {
	return TrainingTraceOpts(s, TrainOptions{})
}
