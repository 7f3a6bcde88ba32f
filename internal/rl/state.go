package rl

import (
	"fmt"
	"math"

	"miras/internal/mat"
	"miras/internal/nn"
)

// AgentState is a serializable snapshot of everything mutable in a DDPG
// agent: all five networks, both optimizers' Adam moments, the replay
// buffer, the normaliser statistics, the exploration-noise state, counters,
// and the RNG stream position. Restoring it into an agent built with the
// same Config makes subsequent training bit-identical to a run that never
// stopped.
type AgentState struct {
	Actor        *nn.Network `json:"actor"`
	ActorTarget  *nn.Network `json:"actor_target"`
	Critic       *nn.Network `json:"critic"`
	CriticTarget *nn.Network `json:"critic_target"`
	Perturbed    *nn.Network `json:"perturbed"`

	ActorOpt  nn.AdamState `json:"actor_opt"`
	CriticOpt nn.AdamState `json:"critic_opt"`

	Replay     []Experience `json:"replay"`
	ReplayNext int          `json:"replay_next"`
	ReplayFull bool         `json:"replay_full"`

	NormCount float64   `json:"norm_count"`
	NormMean  []float64 `json:"norm_mean"`
	NormM2    []float64 `json:"norm_m2"`

	NoiseSigma float64   `json:"noise_sigma,omitempty"`
	OUState    []float64 `json:"ou_state,omitempty"`

	RawNoiseViolations uint64  `json:"raw_noise_violations"`
	RawNoiseTotal      uint64  `json:"raw_noise_total"`
	Updates            uint64  `json:"updates"`
	LastCriticLoss     float64 `json:"last_critic_loss"`
	LastMeanQ          float64 `json:"last_mean_q"`

	RNG uint64 `json:"rng"`
}

// State captures the agent's full mutable state as a deep copy.
func (d *DDPG) State() *AgentState {
	s := &AgentState{
		Actor:        d.actor.Clone(),
		ActorTarget:  d.actorTarget.Clone(),
		Critic:       d.critic.Clone(),
		CriticTarget: d.criticTarget.Clone(),
		Perturbed:    d.perturbed.Clone(),
		ActorOpt:     d.actorOpt.State(),
		CriticOpt:    d.criticOpt.State(),
		ReplayNext:   d.replay.next,
		ReplayFull:   d.replay.full,
		NormCount:    d.norm.count,
		NormMean:     mat.VecClone(d.norm.mean),
		NormM2:       mat.VecClone(d.norm.m2),

		RawNoiseViolations: d.rawNoiseViolations,
		RawNoiseTotal:      d.rawNoiseTotal,
		Updates:            d.updates,
		LastCriticLoss:     d.lastCriticLoss,
		LastMeanQ:          d.lastMeanQ,
		RNG:                d.src.State(),
	}
	s.Replay = make([]Experience, len(d.replay.buf))
	for i, e := range d.replay.buf {
		s.Replay[i] = Experience{
			State:  mat.VecClone(e.State),
			Action: mat.VecClone(e.Action),
			Next:   mat.VecClone(e.Next),
			Reward: e.Reward,
			Done:   e.Done,
		}
	}
	if d.pnoise != nil {
		s.NoiseSigma = d.pnoise.Sigma
	}
	if d.ounoise != nil {
		s.OUState = mat.VecClone(d.ounoise.state)
	}
	return s
}

// Restore overwrites the agent's mutable state with a snapshot captured by
// State on an agent with the same Config. Every network is shape-checked
// and finiteness-checked before anything is mutated, so a corrupt snapshot
// leaves the agent untouched.
func (d *DDPG) Restore(s *AgentState) error {
	for _, n := range []struct {
		name string
		cur  *nn.Network
		new  *nn.Network
	}{
		{"actor", d.actor, s.Actor},
		{"actor target", d.actorTarget, s.ActorTarget},
		{"critic", d.critic, s.Critic},
		{"critic target", d.criticTarget, s.CriticTarget},
		{"perturbed actor", d.perturbed, s.Perturbed},
	} {
		if n.new == nil {
			return fmt.Errorf("rl: restore: missing %s network", n.name)
		}
		if err := n.new.Validate(); err != nil {
			return fmt.Errorf("rl: restore: %s: %w", n.name, err)
		}
		if err := n.cur.SameShape(n.new); err != nil {
			return fmt.Errorf("rl: restore: %s: %w", n.name, err)
		}
	}
	dim := d.cfg.StateDim
	if len(s.NormMean) != dim || len(s.NormM2) != dim {
		return fmt.Errorf("rl: restore: normaliser width %d/%d != state dim %d",
			len(s.NormMean), len(s.NormM2), dim)
	}
	if s.NormCount < 0 || !finiteAll(s.NormMean) || !finiteAll(s.NormM2) {
		return fmt.Errorf("rl: restore: invalid normaliser statistics")
	}
	for _, v := range s.NormM2 {
		if v < 0 {
			return fmt.Errorf("rl: restore: negative normaliser variance accumulator %g", v)
		}
	}
	if len(s.Replay) > d.replay.Cap() {
		return fmt.Errorf("rl: restore: replay size %d exceeds capacity %d",
			len(s.Replay), d.replay.Cap())
	}
	if s.ReplayNext < 0 || (len(s.Replay) > 0 && s.ReplayNext >= d.replay.Cap()) {
		return fmt.Errorf("rl: restore: replay cursor %d out of range", s.ReplayNext)
	}
	for i, e := range s.Replay {
		if len(e.State) != dim || len(e.Next) != dim || len(e.Action) != d.cfg.ActionDim {
			return fmt.Errorf("rl: restore: replay experience %d has wrong dimensions", i)
		}
	}
	if d.pnoise != nil && (math.IsNaN(s.NoiseSigma) || s.NoiseSigma <= 0) {
		return fmt.Errorf("rl: restore: invalid parameter-noise sigma %g", s.NoiseSigma)
	}
	if d.ounoise != nil && len(s.OUState) != d.cfg.ActionDim {
		return fmt.Errorf("rl: restore: OU state width %d != action dim %d",
			len(s.OUState), d.cfg.ActionDim)
	}

	// Validation passed; mutate. Parameters are copied into the existing
	// networks (not swapped) so the batch caches and optimizers keep
	// pointing at live storage.
	d.actor.CopyParamsFrom(s.Actor)
	d.actorTarget.CopyParamsFrom(s.ActorTarget)
	d.critic.CopyParamsFrom(s.Critic)
	d.criticTarget.CopyParamsFrom(s.CriticTarget)
	d.perturbed.CopyParamsFrom(s.Perturbed)
	if err := d.actorOpt.SetState(s.ActorOpt); err != nil {
		return fmt.Errorf("rl: restore: actor optimizer: %w", err)
	}
	if err := d.criticOpt.SetState(s.CriticOpt); err != nil {
		return fmt.Errorf("rl: restore: critic optimizer: %w", err)
	}
	d.replay.buf = d.replay.buf[:0]
	for _, e := range s.Replay {
		d.replay.buf = append(d.replay.buf, Experience{
			State:  mat.VecClone(e.State),
			Action: mat.VecClone(e.Action),
			Next:   mat.VecClone(e.Next),
			Reward: e.Reward,
			Done:   e.Done,
		})
	}
	d.replay.next = s.ReplayNext
	d.replay.full = s.ReplayFull
	d.logRows = d.logRows[:0]
	for slot, e := range d.replay.buf {
		d.compressSlot(slot, e)
	}
	d.norm.count = s.NormCount
	copy(d.norm.mean, s.NormMean)
	copy(d.norm.m2, s.NormM2)
	if d.pnoise != nil {
		d.pnoise.Sigma = s.NoiseSigma
	}
	if d.ounoise != nil {
		copy(d.ounoise.state, s.OUState)
	}
	d.rawNoiseViolations = s.RawNoiseViolations
	d.rawNoiseTotal = s.RawNoiseTotal
	d.updates = s.Updates
	d.lastCriticLoss = s.LastCriticLoss
	d.lastMeanQ = s.LastMeanQ
	d.src.SetState(s.RNG)
	return nil
}

// CheckHealth probes the agent for numeric divergence: non-finite weights
// in any network, a non-finite critic loss, or a critic estimate whose
// magnitude exceeds maxAbsQ (maxAbsQ <= 0 disables the bound). A non-nil
// error means the agent's state is poisoned and the caller should roll
// back to the last healthy snapshot.
func (d *DDPG) CheckHealth(maxAbsQ float64) error {
	for _, n := range []struct {
		name string
		net  *nn.Network
	}{
		{"actor", d.actor},
		{"actor target", d.actorTarget},
		{"critic", d.critic},
		{"critic target", d.criticTarget},
		{"perturbed actor", d.perturbed},
	} {
		if err := n.net.CheckFinite(); err != nil {
			return fmt.Errorf("rl: %s diverged: %w", n.name, err)
		}
	}
	if math.IsNaN(d.lastCriticLoss) || math.IsInf(d.lastCriticLoss, 0) {
		return fmt.Errorf("rl: critic loss diverged: %g", d.lastCriticLoss)
	}
	if math.IsNaN(d.lastMeanQ) || math.IsInf(d.lastMeanQ, 0) {
		return fmt.Errorf("rl: mean Q diverged: %g", d.lastMeanQ)
	}
	if maxAbsQ > 0 && math.Abs(d.lastMeanQ) > maxAbsQ {
		return fmt.Errorf("rl: |mean Q| = %g exceeds bound %g", math.Abs(d.lastMeanQ), maxAbsQ)
	}
	if !finiteAll(d.norm.mean) || !finiteAll(d.norm.m2) {
		return fmt.Errorf("rl: state normaliser diverged")
	}
	return nil
}

func finiteAll(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
