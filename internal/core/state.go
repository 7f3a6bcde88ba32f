package core

import (
	"errors"
	"fmt"

	"miras/internal/env"
	"miras/internal/envmodel"
	"miras/internal/invariant"
	"miras/internal/nn"
	"miras/internal/rl"
)

// ErrStopped is returned by Train when Config.StopFn requested a clean
// stop. The agent is left in a consistent, checkpointable state; callers
// distinguish it from real failures to exit without reporting an error.
var ErrStopped = errors.New("core: training stopped by request")

// TrainState is the full serializable training state at an outer-iteration
// boundary: everything needed to continue Train as if the process had
// never stopped. BestReturn starts at -Inf inside Train, which JSON cannot
// represent, so the pair (HasBest, BestReturn) encodes "no evaluation has
// won yet" instead.
type TrainState struct {
	// Iter is the next outer iteration to run (completed iterations are 0
	// through Iter-1).
	Iter       int              `json:"iter"`
	Stats      []IterationStats `json:"stats"`
	HasBest    bool             `json:"has_best"`
	BestReturn float64          `json:"best_return,omitempty"`
	BestActor  *nn.Network      `json:"best_actor,omitempty"`
	Rollbacks  int              `json:"rollbacks,omitempty"`
	// RNG is the agent-level random stream position (rollout exploration,
	// refiner shuffling).
	RNG     uint64               `json:"rng"`
	Agent   *rl.AgentState       `json:"agent"`
	Model   *envmodel.ModelState `json:"model"`
	Dataset *envmodel.Dataset    `json:"dataset"`
	// EnvLog is replayed on resume; the result must match EnvDigest.
	EnvLog    []env.Op `json:"env_log"`
	EnvDigest uint64   `json:"env_digest"`
}

// resumeInfo stashes the parts of a restored TrainState that live in
// Train's local variables rather than in the agent.
type resumeInfo struct {
	iter       int
	stats      []IterationStats
	hasBest    bool
	bestReturn float64
	bestActor  *nn.Network
}

// trainState captures the agent's full training state at the end of an
// iteration. Learner and model state are deep copies; the dataset and env
// log are shared with the live agent and environment, so callers must
// serialize the state before training continues.
func (a *Agent) trainState(nextIter int, stats []IterationStats, bestReturn float64, bestActor *nn.Network) *TrainState {
	st := &TrainState{
		Iter:      nextIter,
		Stats:     stats,
		Rollbacks: a.rollbacks,
		RNG:       a.src.State(),
		Agent:     a.ddpg.State(),
		Model:     a.model.State(),
		Dataset:   a.dataset,
		EnvLog:    a.cfg.Env.Ops(),
		EnvDigest: envDigest(a.cfg.Env),
	}
	if bestActor != nil {
		st.HasBest = true
		st.BestReturn = bestReturn
		st.BestActor = bestActor.Clone()
	}
	return st
}

// RestoreTraining primes a freshly constructed agent with a checkpointed
// TrainState so the next Train call continues the interrupted run. It
// restores the DDPG learner, the environment model, and the dataset,
// replays the environment's op log onto the (freshly built, identically
// seeded) real environment, checking the result against EnvDigest (hooks
// are not rerun), and repositions the agent's random stream.
//
// The agent must have been built with the same Config as the checkpointed
// run; shapes and values are validated, but on error the agent may be
// partially restored and should be discarded.
func (a *Agent) RestoreTraining(st *TrainState) error {
	if st == nil {
		return fmt.Errorf("core: restore: nil train state")
	}
	if st.Iter < 0 || st.Iter > a.cfg.Iterations {
		return fmt.Errorf("core: restore: iteration %d out of range [0,%d]", st.Iter, a.cfg.Iterations)
	}
	if st.Agent == nil || st.Model == nil || st.Dataset == nil {
		return fmt.Errorf("core: restore: missing agent, model, or dataset state")
	}
	j, ad := a.cfg.Env.StateDim(), a.cfg.Env.ActionDim()
	if st.Dataset.StateDim() != j || st.Dataset.ActionDim() != ad {
		return fmt.Errorf("core: restore: dataset dims (%d,%d) != environment (%d,%d)",
			st.Dataset.StateDim(), st.Dataset.ActionDim(), j, ad)
	}
	if st.HasBest {
		if st.BestActor == nil {
			return fmt.Errorf("core: restore: has_best set without best actor")
		}
		if err := st.BestActor.Validate(); err != nil {
			return fmt.Errorf("core: restore: best actor: %w", err)
		}
		if err := a.ddpg.Actor().SameShape(st.BestActor); err != nil {
			return fmt.Errorf("core: restore: best actor: %w", err)
		}
	}
	if err := a.ddpg.Restore(st.Agent); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if err := a.model.Restore(st.Model); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	a.dataset = st.Dataset
	if err := a.cfg.Env.Replay(st.EnvLog); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if got := envDigest(a.cfg.Env); got != st.EnvDigest {
		return fmt.Errorf("core: restore: replayed environment digest %016x != checkpoint %016x "+
			"(a hook changed the environment outside Env.InjectBurst?)", got, st.EnvDigest)
	}
	a.src.SetState(st.RNG)
	a.rollbacks = st.Rollbacks
	a.resume = &resumeInfo{
		iter:       st.Iter,
		stats:      st.Stats,
		hasBest:    st.HasBest,
		bestReturn: st.BestReturn,
		bestActor:  st.BestActor,
	}
	return nil
}

// envDigest fingerprints the environment: window, time, state, conservation.
func envDigest(e *env.Env) uint64 {
	c := e.Cluster()
	d := invariant.NewDigest().Int(e.Window()).Float64(float64(c.Now())).Floats(e.State())
	d.Uint64(c.Submitted()).Uint64(c.CompletedInstances()).Int(c.InFlight())
	return d.Uint64(c.Dropped()).Uint64(c.Abandoned()).Sum()
}
