package core

import (
	"testing"

	"miras/internal/env"
	"miras/internal/rl"
)

func TestResetHookFiresDuringCollection(t *testing.T) {
	e := newToyEnv(t, 20)
	cfg := tinyConfig(e, 20)
	calls := 0
	cfg.ResetHook = func() { calls++ }
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CollectReal(30, true); err != nil {
		t.Fatal(err)
	}
	// ResetEvery=10 over 30 steps → resets at steps 0, 10, 20.
	if calls != 3 {
		t.Fatalf("reset hook fired %d times, want 3", calls)
	}
}

func TestEvalHookFires(t *testing.T) {
	e := newToyEnv(t, 21)
	cfg := tinyConfig(e, 21)
	calls := 0
	cfg.EvalHook = func() { calls++ }
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("eval hook fired %d times, want 1", calls)
	}
}

func TestResetHookStateReflectsInjection(t *testing.T) {
	e := newToyEnv(t, 22)
	cfg := tinyConfig(e, 22)
	cfg.ResetHook = func() {
		// Simulate a burst by submitting directly.
		for i := 0; i < 5; i++ {
			e.Cluster().Submit(0)
		}
	}
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CollectReal(1, true); err != nil {
		t.Fatal(err)
	}
	// The first recorded transition's state must include the injected work.
	tr := a.Dataset().At(0)
	if tr.State[0] < 5 {
		t.Fatalf("collection state %v missed injected burst", tr.State)
	}
}

func TestCollectRealWithPolicyActions(t *testing.T) {
	e := newToyEnv(t, 23)
	a, err := NewAgent(tinyConfig(e, 23))
	if err != nil {
		t.Fatal(err)
	}
	// Policy-driven collection (random=false) must also respect arity and
	// budget and grow the dataset.
	if err := a.CollectReal(20, false); err != nil {
		t.Fatal(err)
	}
	if a.Dataset().Len() != 20 {
		t.Fatalf("dataset=%d", a.Dataset().Len())
	}
}

func TestTrainRestoresBestPolicy(t *testing.T) {
	e := newToyEnv(t, 24)
	cfg := tinyConfig(e, 24)
	cfg.Iterations = 3
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := a.Train()
	if err != nil {
		t.Fatal(err)
	}
	best := stats[0].EvalReturn
	for _, s := range stats[1:] {
		if s.EvalReturn > best {
			best = s.EvalReturn
		}
	}
	// After restore, re-evaluating should be in the neighbourhood of the
	// best iteration rather than the (possibly worse) final one. The
	// environment is stochastic, so only sanity-check it runs.
	ret, err := a.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	_ = ret
	_ = best
}

func TestSnapshotControllerMatchesLiveController(t *testing.T) {
	e := newToyEnv(t, 25)
	a, err := NewAgent(tinyConfig(e, 25))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CollectReal(20, true); err != nil {
		t.Fatal(err)
	}
	if _, err := a.FitModel(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.ImprovePolicy(); err != nil {
		t.Fatal(err)
	}
	snapCtrl, err := NewSnapshotController(a.Snapshot(), e.Budget())
	if err != nil {
		t.Fatal(err)
	}
	live := a.Controller()
	prev := env.StepResult{State: []float64{7, 3}}
	a1 := live.Decide(prev)
	a2 := snapCtrl.Decide(prev)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("snapshot controller %v != live %v", a2, a1)
		}
	}
	// Each decision is a fresh slice: a caller may keep it past the next.
	if a3 := snapCtrl.Decide(env.StepResult{State: []float64{0, 40}}); &a3[0] == &a2[0] {
		t.Fatal("snapshot controller reused its previous allocation slice")
	}
	if snapCtrl.Name() != "miras" {
		t.Fatal("name wrong")
	}
	snapCtrl.Reset() // no-op, must not panic
}

func TestNewSnapshotControllerValidation(t *testing.T) {
	if _, err := NewSnapshotController(nil, 10); err == nil {
		t.Fatal("expected error for nil snapshot")
	}
	snap := &rl.PolicySnapshot{}
	if _, err := NewSnapshotController(snap, 0); err == nil {
		t.Fatal("expected error for zero budget")
	}
}

func TestDefaultsApplied(t *testing.T) {
	e := newToyEnv(t, 26)
	a, err := NewAgent(Config{Env: e, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.cfg
	if cfg.Iterations != 12 || cfg.StepsPerIteration != 1000 || cfg.ResetEvery != 25 ||
		cfg.RolloutLen != 25 || cfg.EvalSteps != 25 || cfg.PolicyEpisodes != 60 ||
		cfg.ModelEpochs != 20 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if len(cfg.ModelHidden) != 3 {
		t.Fatalf("model hidden default=%v", cfg.ModelHidden)
	}
	if a.Model() == nil {
		t.Fatal("Model accessor nil")
	}
}

func TestControllerResetNoops(t *testing.T) {
	e := newToyEnv(t, 27)
	a, err := NewAgent(tinyConfig(e, 27))
	if err != nil {
		t.Fatal(err)
	}
	ctrl := a.Controller()
	ctrl.Reset() // must not panic and must not change behaviour
	prev := env.StepResult{State: []float64{1, 1}}
	before := ctrl.Decide(prev)
	ctrl.Reset()
	after := ctrl.Decide(prev)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Reset changed a stateless controller")
		}
	}
}
