package rl

import (
	"fmt"

	"miras/internal/env"
)

// WindowedEnv adapts the real emulated cluster environment (*env.Env) to
// the Environment interface the agent trains against. Simplex actions are
// converted to integer consumer counts with the paper's floor rule — which
// guarantees the budget constraint, so Step can never fail on a valid
// simplex. Episodes end after EpisodeLen windows (the paper resets the real
// environment every 25 steps during data collection, §VI-A3).
type WindowedEnv struct {
	inner      *env.Env
	episodeLen int
	steps      int
}

// Compile-time interface check.
var _ Environment = (*WindowedEnv)(nil)

// NewWindowedEnv wraps e with the given episode length.
func NewWindowedEnv(e *env.Env, episodeLen int) (*WindowedEnv, error) {
	if e == nil {
		return nil, fmt.Errorf("rl: env is required")
	}
	if episodeLen <= 0 {
		return nil, fmt.Errorf("rl: episode length must be positive, got %d", episodeLen)
	}
	return &WindowedEnv{inner: e, episodeLen: episodeLen}, nil
}

// StateDim implements Environment.
func (w *WindowedEnv) StateDim() int { return w.inner.StateDim() }

// ActionDim implements Environment. The action simplex has one share per
// microservice — narrower than the state when the environment is
// failure-aware.
func (w *WindowedEnv) ActionDim() int { return w.inner.ActionDim() }

// Reset implements Environment. It clears cluster WIP: the paper's reset
// provisions consumers until WIP ≈ 0, and env.Reset is the instantaneous
// equivalent.
func (w *WindowedEnv) Reset() []float64 {
	w.steps = 0
	return w.inner.Reset()
}

// Step implements Environment. A panic on Step is impossible for simplex
// actions; any residual error (programming bug) is surfaced as a panic
// because it cannot be handled meaningfully mid-training.
func (w *WindowedEnv) Step(action []float64) (next []float64, reward float64, done bool) {
	m := env.SimplexToAllocation(action, w.inner.Budget())
	res, err := w.inner.Step(m)
	if err != nil {
		panic(fmt.Sprintf("rl: real env rejected floored simplex action: %v", err))
	}
	w.steps++
	return res.State, res.Reward, w.steps >= w.episodeLen
}
