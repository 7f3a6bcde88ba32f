package experiments

import (
	"fmt"

	"miras/internal/faults"
	"miras/internal/invariant"
)

// SelfCheckResult reports one determinism self-check: the trajectory digest
// shared by both runs and the horizon that produced it.
type SelfCheckResult struct {
	// Windows is the number of control windows each run advanced.
	Windows int
	// Digest is the FNV-1a digest of the state/reward trajectory and the
	// final cluster counters, identical across both runs.
	Digest uint64
}

// SelfCheck verifies end-to-end determinism of the emulation stack: it
// builds two harnesses from identical (Setup, seed, plan), drives each
// through the same short horizon — paper burst at time zero, uniform
// allocation every window — and digests the full observable trajectory
// (states, rewards, final conservation counters). Any divergence means a
// component consumed randomness outside its named stream, iterated a map,
// or otherwise broke the bit-reproducibility every experiment relies on.
//
// plan, when non-nil, is armed in both harnesses, so the chaos path can be
// self-checked under every regime.
func SelfCheck(s Setup, windows int, plan *faults.Plan) (*SelfCheckResult, error) {
	if windows <= 0 {
		windows = 8
	}
	first, err := selfCheckDigest(s, windows, plan)
	if err != nil {
		return nil, err
	}
	second, err := selfCheckDigest(s, windows, plan)
	if err != nil {
		return nil, err
	}
	if first != second {
		return nil, fmt.Errorf("experiments: determinism self-check failed over %d windows: digest %#016x vs %#016x — a component is drawing randomness outside its named stream or depends on map iteration order",
			windows, first, second)
	}
	return &SelfCheckResult{Windows: windows, Digest: first}, nil
}

// selfCheckDigest runs one deterministic scripted rollout and folds every
// observable into a digest.
func selfCheckDigest(s Setup, windows int, plan *faults.Plan) (uint64, error) {
	h, err := buildHarness(s, 700, plan)
	if err != nil {
		return 0, err
	}
	bursts, err := paperOrFallbackBursts(s)
	if err != nil {
		return 0, err
	}
	if err := h.Env.InjectBurst(bursts[0]); err != nil {
		return 0, err
	}
	alloc := uniformAllocation(h.Env.ActionDim(), s.Budget)
	d := invariant.NewDigest()
	for w := 0; w < windows; w++ {
		res, err := h.Env.Step(alloc)
		if err != nil {
			return 0, err
		}
		d.Floats(res.State).Float64(res.Reward)
	}
	c := h.Cluster
	d.Uint64(c.Submitted()).
		Uint64(c.CompletedInstances()).
		Uint64(c.Dropped()).
		Uint64(c.Failures()).
		Uint64(c.Redeliveries())
	return d.Sum(), nil
}

// uniformAllocation spreads budget evenly over n microservices, giving the
// remainder to the lowest indices.
func uniformAllocation(n, budget int) []int {
	m := make([]int, n)
	for j := range m {
		m[j] = budget / n
	}
	for j := 0; j < budget%n; j++ {
		m[j]++
	}
	return m
}
