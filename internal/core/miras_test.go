package core

import (
	"testing"

	"miras/internal/cluster"
	"miras/internal/env"
	"miras/internal/rl"
	"miras/internal/workflow"
)

// newToyEnv builds a fast real environment over the toy ensemble with
// light Poisson background load.
func newToyEnv(t *testing.T, seed int64) *env.Env {
	t.Helper()
	e, err := env.New(toyEnvConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// toyEnvConfig is newToyEnv's configuration: the toy ensemble with fast
// start-ups and Poisson background load at 0.3 requests/s.
func toyEnvConfig(seed int64) env.Config {
	return env.Config{
		Cluster: cluster.Config{Ensemble: workflow.Toy(), StartupDelayMin: 1, StartupDelayMax: 2},
		Seed:    seed,
		Rates:   []float64{0.3},
		Budget:  6, WindowSec: 10,
	}
}

// tinyConfig is a heavily shrunk MIRAS configuration for fast tests.
func tinyConfig(e *env.Env, seed int64) Config {
	return Config{
		Env:               e,
		ModelHidden:       []int{16},
		ModelEpochs:       5,
		RL:                rl.Config{Hidden: []int{16, 16}, BatchSize: 16, RewardScale: 0.05},
		Iterations:        2,
		StepsPerIteration: 60,
		ResetEvery:        10,
		RolloutLen:        8,
		EvalSteps:         8,
		PolicyEpisodes:    10,
		Seed:              seed,
	}
}

func TestNewAgentValidation(t *testing.T) {
	if _, err := NewAgent(Config{}); err == nil {
		t.Fatal("expected error without Env")
	}
	if _, err := NewAgent(Config{RawModel: true}); err == nil {
		t.Fatal("expected error without Env (raw model)")
	}
}

// TestNewAgentRejectsNegativeCounts pins that a negative count is a
// construction error, not a panic inside Train.
func TestNewAgentRejectsNegativeCounts(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"Iterations", func(c *Config) { c.Iterations = -1 }},
		{"StepsPerIteration", func(c *Config) { c.StepsPerIteration = -1 }},
		{"PolicyEpisodes", func(c *Config) { c.PolicyEpisodes = -1 }},
		{"ModelEpochs", func(c *Config) { c.ModelEpochs = -1 }},
		{"RolloutLen", func(c *Config) { c.RolloutLen = -1 }},
		{"EvalSteps", func(c *Config) { c.EvalSteps = -1 }},
		{"ResetEvery", func(c *Config) { c.ResetEvery = -1 }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			cfg := tinyConfig(newToyEnv(t, 1), 1)
			tc.set(&cfg)
			if _, err := NewAgent(cfg); err == nil {
				t.Fatalf("NewAgent accepted %s = -1", tc.field)
			}
			cfg.RawModel = true
			if _, err := NewAgent(cfg); err == nil {
				t.Fatalf("NewAgent accepted %s = -1 with RawModel", tc.field)
			}
		})
	}
}

func TestCollectRealGrowsDataset(t *testing.T) {
	e := newToyEnv(t, 1)
	a, err := NewAgent(tinyConfig(e, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CollectReal(30, true); err != nil {
		t.Fatal(err)
	}
	if a.Dataset().Len() != 30 {
		t.Fatalf("dataset=%d, want 30", a.Dataset().Len())
	}
	// Transitions store actions as budget fractions summing to ≤ 1.
	for i := 0; i < a.Dataset().Len(); i++ {
		tr := a.Dataset().At(i)
		var sum float64
		for _, v := range tr.Action {
			if v < 0 {
				t.Fatalf("negative action fraction: %v", tr.Action)
			}
			sum += v
		}
		if sum > 1+1e-9 {
			t.Fatalf("action fractions sum to %g > 1", sum)
		}
	}
}

func TestFitModelRequiresData(t *testing.T) {
	e := newToyEnv(t, 2)
	a, err := NewAgent(tinyConfig(e, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.FitModel(); err == nil {
		t.Fatal("expected error fitting on empty dataset")
	}
}

func TestImprovePolicyNeedsModel(t *testing.T) {
	e := newToyEnv(t, 3)
	a, err := NewAgent(tinyConfig(e, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CollectReal(20, true); err != nil {
		t.Fatal(err)
	}
	if _, err := a.FitModel(); err != nil {
		t.Fatal(err)
	}
	episodes, _, err := a.ImprovePolicy()
	if err != nil {
		t.Fatal(err)
	}
	if episodes == 0 {
		t.Fatal("no policy episodes ran")
	}
	if a.DDPG().ReplayLen() == 0 {
		t.Fatal("synthetic experiences not stored")
	}
}

func TestEvaluateRunsRealEpisode(t *testing.T) {
	e := newToyEnv(t, 4)
	a, err := NewAgent(tinyConfig(e, 4))
	if err != nil {
		t.Fatal(err)
	}
	ret, err := a.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	// 8 steps of r = 1 − ΣWIP: return is at most 8.
	if ret > 8 {
		t.Fatalf("eval return %g exceeds maximum", ret)
	}
}

func TestTrainFullLoop(t *testing.T) {
	e := newToyEnv(t, 5)
	a, err := NewAgent(tinyConfig(e, 5))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := a.Train()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("iterations=%d, want 2", len(stats))
	}
	if stats[0].DatasetSize != 60 || stats[1].DatasetSize != 120 {
		t.Fatalf("dataset growth wrong: %d, %d", stats[0].DatasetSize, stats[1].DatasetSize)
	}
	for _, s := range stats {
		if s.PolicyEpisodes == 0 {
			t.Fatalf("iteration %d ran no policy episodes", s.Iteration)
		}
		if s.ModelLoss < 0 {
			t.Fatalf("negative model loss %g", s.ModelLoss)
		}
	}
	if stats[1].NoiseSigma <= 0 {
		t.Fatal("parameter noise sigma not tracked")
	}
}

func TestTrainNoRefineVariant(t *testing.T) {
	e := newToyEnv(t, 6)
	cfg := tinyConfig(e, 6)
	cfg.RawModel = true
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgStats, err := a.Train()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgStats) != 2 {
		t.Fatalf("iterations=%d, want 2", len(cfgStats))
	}
}

func TestControllerRespectsBudget(t *testing.T) {
	e := newToyEnv(t, 7)
	a, err := NewAgent(tinyConfig(e, 7))
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
	ctrl := a.Controller()
	if ctrl.Name() != "miras" {
		t.Fatalf("controller name %q", ctrl.Name())
	}
	prev := env.StepResult{State: []float64{12, 3}}
	for i := 0; i < 20; i++ {
		m := ctrl.Decide(prev)
		if !env.ValidAllocation(m, e.Budget()) {
			t.Fatalf("controller violated budget: %v", m)
		}
		prev.State[0] = float64(i * 3)
	}
}

func TestControllerRunsInComparisonHarness(t *testing.T) {
	trainEnv := newToyEnv(t, 8)
	a, err := NewAgent(tinyConfig(trainEnv, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(); err != nil {
		t.Fatal(err)
	}
	evalEnv := newToyEnv(t, 9)
	results, err := env.Run(evalEnv, a.Controller(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results=%d", len(results))
	}
}
