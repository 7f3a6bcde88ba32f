package rl

import (
	"math"
	"testing"

	"miras/internal/cluster"
	"miras/internal/env"
	"miras/internal/workflow"
)

func newAdapterEnv(t *testing.T, seed int64) *env.Env {
	t.Helper()
	e, err := env.New(env.Config{
		Cluster: cluster.Config{Ensemble: workflow.Toy(), StartupDelayMin: 1, StartupDelayMax: 2},
		Seed:    seed,
		Rates:   []float64{0},
		Budget:  6, WindowSec: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewWindowedEnvValidation(t *testing.T) {
	if _, err := NewWindowedEnv(nil, 5); err == nil {
		t.Fatal("expected error for nil env")
	}
	e := newAdapterEnv(t, 70)
	if _, err := NewWindowedEnv(e, 0); err == nil {
		t.Fatal("expected error for zero episode length")
	}
}

func TestWindowedEnvEpisodeLifecycle(t *testing.T) {
	e := newAdapterEnv(t, 71)
	w, err := NewWindowedEnv(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w.StateDim() != 2 || w.ActionDim() != 2 {
		t.Fatalf("dims %d/%d", w.StateDim(), w.ActionDim())
	}
	state := w.Reset()
	if len(state) != 2 {
		t.Fatalf("reset state %v", state)
	}
	action := []float64{0.5, 0.5}
	var done bool
	steps := 0
	var reward float64
	for !done {
		state, reward, done = w.Step(action)
		steps++
		if steps > 3 {
			t.Fatal("episode did not end at horizon")
		}
	}
	if steps != 3 {
		t.Fatalf("episode length %d, want 3", steps)
	}
	// Reward is Eq. 1 of the observed state.
	var sum float64
	for _, v := range state {
		sum += v
	}
	if math.Abs(reward-(1-sum)) > 1e-12 {
		t.Fatalf("reward %g != 1-ΣWIP %g", reward, 1-sum)
	}
	// Reset starts a new episode.
	w.Reset()
	_, _, done = w.Step(action)
	if done {
		t.Fatal("fresh episode ended after one step")
	}
}

func TestWindowedEnvResetSemantics(t *testing.T) {
	e := newAdapterEnv(t, 72)
	// Park WIP by submitting directly.
	for i := 0; i < 5; i++ {
		e.Cluster().Submit(0)
	}
	w, err := NewWindowedEnv(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	if state := w.Reset(); state[0] != 0 {
		t.Fatalf("Reset left WIP: %v", state)
	}
}

func TestDDPGAccessors(t *testing.T) {
	d, err := NewDDPG(Config{StateDim: 2, ActionDim: 2, Hidden: []int{8, 8}, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	if d.Config().StateDim != 2 || d.Config().ActorLR == 0 {
		t.Fatal("Config not resolved")
	}
	if d.ReplayLen() != 0 {
		t.Fatal("fresh replay not empty")
	}
	if d.NoiseSigma() <= 0 {
		t.Fatal("param-noise agent should report sigma")
	}
	actionNoise, err := NewDDPG(Config{StateDim: 2, ActionDim: 2, Hidden: []int{8, 8}, Exploration: ActionSpaceNoise, Seed: 74})
	if err != nil {
		t.Fatal(err)
	}
	if actionNoise.NoiseSigma() != 0 {
		t.Fatal("action-noise agent should report parameter-noise sigma 0")
	}
	if d.Actor() == nil {
		t.Fatal("Actor nil")
	}
}

func TestRestoreActorParams(t *testing.T) {
	d, err := NewDDPG(Config{StateDim: 2, ActionDim: 2, Hidden: []int{8, 8}, BatchSize: 8, Seed: 75})
	if err != nil {
		t.Fatal(err)
	}
	saved := d.Actor().Clone()
	state := []float64{3, 4}
	// Drift the actor by training on junk.
	for i := 0; i < 40; i++ {
		d.Observe(Experience{State: state, Action: d.Act(state), Next: state, Reward: -1})
		d.Update()
	}
	x := []float64{0.3, -0.2} // fixed (already-normalised) network input
	drifted := d.Actor().Forward(x, nil)
	want := saved.Forward(x, nil)
	if drifted[0] == want[0] {
		t.Fatal("training did not drift the actor; restore test is vacuous")
	}
	d.RestoreActorParams(saved)
	got := d.Actor().Forward(x, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("RestoreActorParams did not restore the policy network")
		}
	}
}

func TestNoiseConstructorsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"OU zero dim":       func() { NewOUNoise(0, 0.1, nil) },
		"param zero sigma":  func() { NewParamNoise(0, 0.1) },
		"param zero delta":  func() { NewParamNoise(0.1, 0) },
		"action dist empty": func() { ActionDistance(nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSnapshotSaveToBadPath(t *testing.T) {
	d, err := NewDDPG(Config{StateDim: 2, ActionDim: 2, Hidden: []int{8, 8}, Seed: 76})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot().Save("/nonexistent-dir/policy.json"); err == nil {
		t.Fatal("expected error writing to bad path")
	}
}
