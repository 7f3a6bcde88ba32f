package rl

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"

	"miras/internal/checkpoint"
	"miras/internal/mat"
	"miras/internal/nn"
)

// PolicySnapshot is a trained policy frozen for deployment: the actor
// network together with the state-normalisation statistics it was trained
// with. A bare actor network is not enough — Act standardises (log-
// compressed) states with running statistics, and a policy replayed
// without them sees differently scaled inputs.
type PolicySnapshot struct {
	// Actor is the deterministic policy network.
	Actor *nn.Network `json:"actor"`
	// NormCount, NormMean, and NormM2 are the Welford accumulator state of
	// the agent's log1p-state normaliser.
	NormCount float64   `json:"norm_count"`
	NormMean  []float64 `json:"norm_mean"`
	NormM2    []float64 `json:"norm_m2"`

	// panels is Actor packed for the lane mat-vec kernel, built by the
	// first NewScratch and shared by every scratch of the snapshot (nil
	// when the lane kernels are off).
	panelsOnce sync.Once
	panels     []*mat.VecPanels
}

// Snapshot freezes the agent's current deterministic policy.
func (d *DDPG) Snapshot() *PolicySnapshot {
	return &PolicySnapshot{
		Actor:     d.actor.Clone(),
		NormCount: d.norm.count,
		NormMean:  mat.VecClone(d.norm.mean),
		NormM2:    mat.VecClone(d.norm.m2),
	}
}

// Save writes the snapshot to path as JSON. The write is atomic (temp
// file + rename), so a crash mid-save leaves any previous snapshot intact.
func (s *PolicySnapshot) Save(path string) error {
	data, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("rl: marshal policy snapshot: %w", err)
	}
	if err := checkpoint.WriteFileAtomic(path, data, 0o644); err != nil {
		return fmt.Errorf("rl: save policy snapshot: %w", err)
	}
	return nil
}

// Validate checks a snapshot's internal consistency: a structurally valid
// actor with no auxiliary input (Act feeds it nil aux), finite parameters,
// and normaliser statistics that match the actor's input width and cannot
// produce NaN standard deviations. Snapshots arriving over the wire (the
// HTTP policy-attach endpoint) go through this before first use.
func (s *PolicySnapshot) Validate() error {
	if s.Actor == nil || len(s.Actor.Layers) == 0 {
		return fmt.Errorf("rl: snapshot has no actor network")
	}
	if err := s.Actor.Validate(); err != nil {
		return fmt.Errorf("rl: snapshot actor: %w", err)
	}
	if s.Actor.AuxLayer >= 0 {
		return fmt.Errorf("rl: snapshot actor has an auxiliary input (aux layer %d)", s.Actor.AuxLayer)
	}
	dim := s.Actor.InDim()
	if len(s.NormMean) != dim || len(s.NormM2) != dim {
		return fmt.Errorf("rl: snapshot normaliser width %d/%d != actor input %d",
			len(s.NormMean), len(s.NormM2), dim)
	}
	if math.IsNaN(s.NormCount) || math.IsInf(s.NormCount, 0) || s.NormCount < 0 {
		return fmt.Errorf("rl: snapshot normaliser count %g invalid", s.NormCount)
	}
	if !finiteAll(s.NormMean) || !finiteAll(s.NormM2) {
		return fmt.Errorf("rl: snapshot normaliser statistics not finite")
	}
	for i, v := range s.NormM2 {
		if v < 0 {
			return fmt.Errorf("rl: snapshot normaliser M2[%d] = %g negative", i, v)
		}
	}
	return nil
}

// LoadPolicySnapshot reads a snapshot written by Save and validates its
// internal consistency, rejecting non-finite weights and dimension
// mismatches with a clean error.
func LoadPolicySnapshot(path string) (*PolicySnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rl: load policy snapshot: %w", err)
	}
	var s PolicySnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("rl: decode policy snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// PolicyScratch holds the preallocated working memory for one caller's
// repeated ActTo evaluations of a snapshot: the normalised-input buffer and
// a forward cache shaped for the actor. A scratch is not safe for
// concurrent use, but independent scratches evaluate the same snapshot
// concurrently without coordination — the snapshot itself is read-only.
type PolicyScratch struct {
	x     []float64
	cache *nn.Cache
}

// NewScratch allocates working memory for evaluating this snapshot via
// ActTo. The first call packs the actor's weights for the lane mat-vec
// kernel, once per snapshot however many goroutines ask, and every
// scratch shares that one copy; the actor must not change after it.
func (s *PolicySnapshot) NewScratch() *PolicyScratch {
	s.panelsOnce.Do(func() { s.panels = s.Actor.PackVecPanels() })
	return &PolicyScratch{
		x:     make([]float64, s.Actor.InDim()),
		cache: nn.NewPanelCache(s.Actor, s.panels),
	}
}

// Act runs the frozen policy on a raw state and returns the simplex
// action, exactly as the live agent's Act would have.
func (s *PolicySnapshot) Act(state []float64) []float64 {
	return mat.VecClone(s.ActTo(s.NewScratch(), state))
}

// ActTo is Act computing entirely in sc — zero allocations in steady state.
// The returned action aliases sc and is valid until the next ActTo with the
// same scratch. Results are bit-identical to Act: both run the same
// log-compression, normalisation, and forward pass.
func (s *PolicySnapshot) ActTo(sc *PolicyScratch, state []float64) []float64 {
	dim := s.Actor.InDim()
	if len(state) != dim {
		panic(fmt.Sprintf("rl: snapshot state width %d != %d", len(state), dim))
	}
	x := sc.x
	logCompress(x, state)
	if s.NormCount >= 2 {
		for i := range x {
			std := math.Sqrt(s.NormM2[i] / s.NormCount)
			if std < 1e-6 {
				std = 1
			}
			x[i] = (x[i] - s.NormMean[i]) / std
		}
	}
	return s.Actor.ForwardCache(sc.cache, x, nil)
}
