package baselines

import (
	"fmt"

	"miras/internal/env"
	"miras/internal/rl"
)

// ModelFreeDDPG is the "rl" baseline of Figs. 7–8: the identical DDPG
// learner trained directly against the real environment — no environment
// model — with the same number of real interactions MIRAS consumes. The
// paper's point is sample efficiency: at equal (small) interaction budgets
// the model-free agent does not converge to a good policy.
type ModelFreeDDPG struct {
	agent  *rl.DDPG
	budget int
}

// Compile-time interface check.
var _ env.Controller = (*ModelFreeDDPG)(nil)

// TrainModelFree trains a DDPG agent on e for totalSteps real interactions
// with episodes of episodeLen windows, returning the trained baseline. The
// rl.Config's dims and defaults are filled in; cfg.Seed should be set by
// the caller for reproducibility. onReset, when non-nil, runs after every
// episode reset (the harness injects training bursts there, identically to
// MIRAS's collection, keeping the comparison fair).
func TrainModelFree(e *env.Env, cfg rl.Config, totalSteps, episodeLen int, onReset func()) (*ModelFreeDDPG, error) {
	if totalSteps <= 0 || episodeLen <= 0 {
		return nil, fmt.Errorf("baselines: totalSteps=%d episodeLen=%d must be positive", totalSteps, episodeLen)
	}
	cfg.StateDim = e.StateDim()
	cfg.ActionDim = e.ActionDim()
	agent, err := rl.NewDDPG(cfg)
	if err != nil {
		return nil, err
	}
	wrapped, err := rl.NewWindowedEnv(e, episodeLen)
	if err != nil {
		return nil, err
	}
	steps := 0
	for steps < totalSteps {
		agent.BeginEpisode()
		state := wrapped.Reset()
		if onReset != nil {
			onReset()
			state = e.State()
		}
		for {
			action := agent.ActExplore(state)
			next, reward, done := wrapped.Step(action)
			agent.Observe(rl.Experience{
				State: state, Action: action, Next: next, Reward: reward, Done: done,
			})
			agent.Update()
			state = next
			steps++
			if done || steps >= totalSteps {
				break
			}
		}
	}
	return &ModelFreeDDPG{agent: agent, budget: e.Budget()}, nil
}

// Name implements env.Controller.
func (m *ModelFreeDDPG) Name() string { return "rl" }

// Reset implements env.Controller.
func (m *ModelFreeDDPG) Reset() {}

// Decide implements env.Controller.
func (m *ModelFreeDDPG) Decide(prev env.StepResult) []int {
	return env.SimplexToAllocation(m.agent.Act(prev.State), m.budget)
}

// Agent exposes the trained learner (for the sample-efficiency ablation).
func (m *ModelFreeDDPG) Agent() *rl.DDPG { return m.agent }

// Static is the uniform-split sanity baseline: the budget divided evenly
// across microservices, never adapting.
type Static struct {
	budget int
	dim    int
}

// Compile-time interface check.
var _ env.Controller = (*Static)(nil)

// NewStatic returns a static uniform allocator.
func NewStatic(dim, budget int) *Static { return &Static{budget: budget, dim: dim} }

// Name implements env.Controller.
func (s *Static) Name() string { return "static" }

// Reset implements env.Controller.
func (s *Static) Reset() {}

// Decide implements env.Controller.
func (s *Static) Decide(env.StepResult) []int {
	return env.UniformAllocation(s.dim, s.budget)
}
