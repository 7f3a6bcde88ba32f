package rl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"miras/internal/mat"
)

func TestReplayBufferBasics(t *testing.T) {
	b := NewReplayBuffer(3)
	if b.Len() != 0 || b.Cap() != 3 {
		t.Fatal("fresh buffer wrong")
	}
	for i := 0; i < 5; i++ {
		b.Add(Experience{State: []float64{float64(i)}, Action: []float64{1}, Next: []float64{0}, Reward: float64(i)})
	}
	if b.Len() != 3 {
		t.Fatalf("Len=%d after overflow, want 3", b.Len())
	}
	// The oldest entries (0, 1) must have been evicted.
	rng := rand.New(rand.NewSource(1))
	batch := make([]Experience, 100)
	b.Sample(rng, batch)
	for _, e := range batch {
		if e.Reward < 2 {
			t.Fatalf("evicted experience sampled: reward %g", e.Reward)
		}
	}
}

func TestReplayBufferCopies(t *testing.T) {
	b := NewReplayBuffer(2)
	s := []float64{1}
	b.Add(Experience{State: s, Action: []float64{1}, Next: []float64{2}})
	s[0] = 99
	batch := make([]Experience, 1)
	b.Sample(rand.New(rand.NewSource(2)), batch)
	if batch[0].State[0] != 1 {
		t.Fatal("replay aliased caller slice")
	}
}

func TestReplayBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero capacity")
		}
	}()
	NewReplayBuffer(0)
}

func TestReplaySampleEmptyPanics(t *testing.T) {
	b := NewReplayBuffer(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty sample")
		}
	}()
	b.Sample(rand.New(rand.NewSource(3)), make([]Experience, 1))
}

func TestOUNoiseMeanReverts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	o := NewOUNoise(2, 0.2, rng)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		s := o.Sample()
		sum += s[0]
	}
	if math.Abs(sum/float64(n)) > 0.1 {
		t.Fatalf("OU mean %g not near 0", sum/float64(n))
	}
	o.Reset()
	for _, v := range o.state {
		if v != 0 {
			t.Fatal("Reset did not zero state")
		}
	}
}

func TestParamNoiseAdaptation(t *testing.T) {
	p := NewParamNoise(0.1, 0.2)
	p.Adapt(0.05) // induced distance below target: grow
	if p.Sigma <= 0.1 {
		t.Fatalf("sigma %g should have grown", p.Sigma)
	}
	prev := p.Sigma
	p.Adapt(0.5) // above target: shrink
	if p.Sigma >= prev {
		t.Fatalf("sigma %g should have shrunk from %g", p.Sigma, prev)
	}
	// NaN/Inf distances are ignored.
	prev = p.Sigma
	p.Adapt(math.NaN())
	p.Adapt(math.Inf(1))
	if p.Sigma != prev {
		t.Fatal("sigma changed on NaN/Inf distance")
	}
}

func TestActionDistance(t *testing.T) {
	a := [][]float64{{0, 0}, {1, 1}}
	b := [][]float64{{0, 0}, {1, 1}}
	if got := ActionDistance(a, b); got != 0 {
		t.Fatalf("identical actions distance %g", got)
	}
	c := [][]float64{{1, 0}, {1, 1}}
	want := math.Sqrt(1.0 / 4)
	if got := ActionDistance(a, c); math.Abs(got-want) > 1e-12 {
		t.Fatalf("distance %g, want %g", got, want)
	}
}

func TestNewDDPGValidation(t *testing.T) {
	if _, err := NewDDPG(Config{StateDim: 0, ActionDim: 2}); err == nil {
		t.Fatal("expected error for zero state dim")
	}
	if _, err := NewDDPG(Config{StateDim: 2, ActionDim: 2, Hidden: []int{8}}); err == nil {
		t.Fatal("expected error for single hidden layer")
	}
	if _, err := NewDDPG(Config{StateDim: 2, ActionDim: 2, Exploration: ExplorationKind(99)}); err == nil {
		t.Fatal("expected error for unknown exploration")
	}
}

func TestActReturnsSimplex(t *testing.T) {
	d, err := NewDDPG(Config{StateDim: 3, ActionDim: 3, Hidden: []int{16, 16}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := d.Act([]float64{1, 2, 3})
	var sum float64
	for _, v := range a {
		if v < 0 {
			t.Fatalf("negative action entry: %v", a)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("action sums to %g", sum)
	}
}

// Property: exploratory actions remain valid simplexes for every
// exploration mechanism — the constraint-satisfaction claim of §IV-D.
func TestActExploreAlwaysSimplex(t *testing.T) {
	for _, kind := range []ExplorationKind{ParamSpaceNoise, ActionSpaceNoise, NoNoise} {
		kind := kind
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			d, err := NewDDPG(Config{
				StateDim: 4, ActionDim: 4, Hidden: []int{12, 12},
				Exploration: kind, NoiseSigma: 0.3, Seed: seed,
			})
			if err != nil {
				return false
			}
			for i := 0; i < 5; i++ {
				state := []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
				d.Observe(Experience{State: state, Action: d.Act(state), Next: state, Reward: -1})
				a := d.ActExplore(state)
				var sum float64
				for _, v := range a {
					if v < -1e-12 {
						return false
					}
					sum += v
				}
				if math.Abs(sum-1) > 1e-9 {
					return false
				}
				d.BeginEpisode()
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("exploration kind %d: %v", kind, err)
		}
	}
}

func TestParamNoiseExplorationDiffersFromMean(t *testing.T) {
	d, err := NewDDPG(Config{
		StateDim: 3, ActionDim: 3, Hidden: []int{16, 16},
		Exploration: ParamSpaceNoise, NoiseSigma: 0.5, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{5, 5, 5}
	plain := d.Act(state)
	noisy := d.ActExplore(state)
	if mat.VecDist(plain, noisy) == 0 {
		t.Fatal("perturbed policy identical to plain policy at sigma 0.5")
	}
}

func TestUpdateNoopUntilBatchAvailable(t *testing.T) {
	d, err := NewDDPG(Config{StateDim: 2, ActionDim: 2, Hidden: []int{8, 8}, BatchSize: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if l, q := d.Update(); l != 0 || q != 0 {
		t.Fatal("Update on empty replay did something")
	}
	if d.Updates() != 0 {
		t.Fatal("update counter advanced")
	}
}

// toyEnv is a 1-ish-dimensional allocation game: WIP dimension 0 grows by 5
// per step and is drained proportionally to the share allocated to it;
// dimension 1 receives nothing. The optimal policy pushes all share to
// dimension 0.
type toyEnv struct {
	state []float64
	steps int
	rng   *rand.Rand
}

func (e *toyEnv) Reset() []float64 {
	e.state = []float64{e.rng.Float64() * 20, e.rng.Float64() * 5}
	e.steps = 0
	return mat.VecClone(e.state)
}

func (e *toyEnv) Step(a []float64) ([]float64, float64, bool) {
	drain0 := 10 * a[0]
	drain1 := 10 * a[1]
	e.state[0] = math.Max(0, e.state[0]+5-drain0)
	e.state[1] = math.Max(0, e.state[1]+0.5-drain1)
	e.steps++
	next := mat.VecClone(e.state)
	return next, 1 - (next[0] + next[1]), e.steps >= 10
}

func (e *toyEnv) StateDim() int  { return 2 }
func (e *toyEnv) ActionDim() int { return 2 }

// TestDDPGLearnsToyAllocation: after training, the policy should allocate
// most of the share to the loaded dimension and achieve clearly better
// return than the uniform policy.
func TestDDPGLearnsToyAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("full DDPG convergence run; skipped in -short mode")
	}
	envRng := rand.New(rand.NewSource(8))
	te := &toyEnv{rng: envRng}
	d, err := NewDDPG(Config{
		StateDim: 2, ActionDim: 2, Hidden: []int{32, 32},
		ActorLR: 3e-4, CriticLR: 3e-3, BatchSize: 32, RewardScale: 0.05,
		Exploration: ParamSpaceNoise, NoiseSigma: 0.2, NoiseTargetDelta: 0.1,
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	episodeReturn := func(explore bool) float64 {
		s := te.Reset()
		var total float64
		for {
			var a []float64
			if explore {
				a = d.ActExplore(s)
			} else {
				a = d.Act(s)
			}
			next, r, done := te.Step(a)
			if explore {
				d.Observe(Experience{State: s, Action: a, Next: next, Reward: r, Done: done})
				d.Update()
			}
			total += r
			s = next
			if done {
				return total
			}
		}
	}
	for ep := 0; ep < 120; ep++ {
		d.BeginEpisode()
		episodeReturn(true)
	}
	// Evaluate.
	var trained float64
	for ep := 0; ep < 10; ep++ {
		trained += episodeReturn(false)
	}
	trained /= 10
	// The trained policy must put most share on the loaded dimension.
	a := d.Act([]float64{20, 1})
	if a[0] < 0.6 {
		t.Fatalf("trained policy allocates %.2f to loaded dim, want > 0.6", a[0])
	}
	if trained < -150 {
		t.Fatalf("trained return %.1f implausibly poor", trained)
	}
}

func TestDDPGDeterministicGivenSeed(t *testing.T) {
	build := func() []float64 {
		d, err := NewDDPG(Config{StateDim: 2, ActionDim: 2, Hidden: []int{8, 8}, Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			s := []float64{float64(i % 7), float64(i % 3)}
			d.Observe(Experience{State: s, Action: d.Act(s), Next: s, Reward: -1})
		}
		d.Update()
		return d.Act([]float64{1, 2})
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different agents")
		}
	}
}

func TestProjectSimplex(t *testing.T) {
	a := []float64{-0.5, 0.5, 1.0}
	projectSimplex(a)
	if a[0] != 0 || math.Abs(a[1]-1.0/3) > 1e-12 || math.Abs(a[2]-2.0/3) > 1e-12 {
		t.Fatalf("projection=%v", a)
	}
	z := []float64{-1, -2}
	projectSimplex(z)
	if z[0] != 0.5 || z[1] != 0.5 {
		t.Fatalf("degenerate projection=%v, want uniform", z)
	}
}

func TestRunningNorm(t *testing.T) {
	r := newRunningNorm(1)
	// Before two samples, apply is identity.
	out := r.apply([]float64{5})
	if out[0] != 5 {
		t.Fatalf("early apply=%v", out)
	}
	for i := 0; i < 1000; i++ {
		r.update([]float64{10 + float64(i%5)}) // mean 12, bounded variance
	}
	out = r.apply([]float64{12})
	if math.Abs(out[0]) > 0.1 {
		t.Fatalf("normalised mean input=%g, want ≈0", out[0])
	}
	// Constant coordinate: std floor prevents division blow-up.
	rc := newRunningNorm(1)
	rc.update([]float64{3})
	rc.update([]float64{3})
	out = rc.apply([]float64{4})
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Fatalf("constant coordinate produced %v", out)
	}
}

func TestRawNoiseViolationCounting(t *testing.T) {
	d, err := NewDDPG(Config{
		StateDim: 3, ActionDim: 3, Hidden: []int{12, 12},
		Exploration: ActionSpaceNoise, NoiseSigma: 0.5, Seed: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		d.ActExplore([]float64{1, 2, 3})
	}
	violations, total := d.RawNoiseViolations()
	if total != 200 {
		t.Fatalf("total=%d, want 200", total)
	}
	// With sigma 0.5 OU noise on a simplex, most raw samples violate.
	if violations == 0 {
		t.Fatal("no raw violations counted at sigma 0.5 — §IV-D failure mode not observable")
	}
	// Parameter noise never counts violations.
	p, err := NewDDPG(Config{
		StateDim: 3, ActionDim: 3, Hidden: []int{12, 12},
		Exploration: ParamSpaceNoise, Seed: 91,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p.ActExplore([]float64{1, 2, 3})
	}
	if v, _ := p.RawNoiseViolations(); v != 0 {
		t.Fatalf("param noise counted %d violations", v)
	}
}

// TestDDPGUpdateZeroAlloc pins that one minibatch update allocates nothing
// once its scratch is warm, at train-msd's shapes (4 services, 64×64×64
// actor and critic, batch 64).
func TestDDPGUpdateZeroAlloc(t *testing.T) {
	agent, err := NewDDPG(Config{
		StateDim: 4, ActionDim: 4, Hidden: []int{64, 64, 64},
		BatchSize: 64, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 256; i++ {
		s := []float64{rng.Float64() * 50, rng.Float64() * 50, rng.Float64() * 50, rng.Float64() * 50}
		agent.Observe(Experience{State: s, Action: agent.Act(s), Next: s, Reward: -rng.Float64() * 100})
	}
	agent.Update() // warm up: size the batch scratch
	if allocs := testing.AllocsPerRun(20, func() { agent.Update() }); allocs != 0 {
		t.Fatalf("DDPG.Update: %v allocs/run, want 0", allocs)
	}
}
