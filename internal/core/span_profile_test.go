package core

import (
	"math"
	"os"
	"strings"
	"testing"

	"miras/internal/env"
	"miras/internal/obs"
)

// newSpannedToyEnv is newTracedToyEnv with the tracer's clock pointed at the
// engine, the way experiments.BuildHarness wires a Setup.Tracer.
func newSpannedToyEnv(t *testing.T, seed int64, tracer *obs.Tracer) *env.Env {
	t.Helper()
	cfg := toyEnvConfig(seed)
	cfg.Tracer = tracer
	e, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tracer.SetClock(func() float64 { return float64(e.Engine().Now()) })
	return e
}

// TestTrainRollbackTriggersProfile forces a divergence rollback (the
// NaN-poisoned critic from TestTrainRollbackOnDivergence) with a profile
// capturer on a sink-less tracer — what `miras train -profile-dir` builds
// without -trace-out — and verifies the anomaly left a non-empty pprof
// capture on disk, named for the divergence_rollback trigger.
func TestTrainRollbackTriggersProfile(t *testing.T) {
	dir := t.TempDir()
	prof, err := obs.NewProfileCapturer(dir)
	if err != nil {
		t.Fatal(err)
	}

	e := newToyEnv(t, 41)
	cfg := tinyConfig(e, 41)
	cfg.Tracer = obs.NewTracer(obs.TracerConfig{SimTime: true, Profiler: prof})
	var agent *Agent
	cfg.CheckpointFn = func(iter int, st *TrainState) error {
		if iter == 0 {
			agent.DDPG().Critic().Layers[0].W.Data[0] = math.NaN()
		}
		return nil
	}
	agent, err = NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := agent.Train()
	if err != nil {
		t.Fatal(err)
	}
	if !stats[1].RolledBack {
		t.Fatal("poisoned iteration not rolled back")
	}
	if prof.Captures() != 1 {
		t.Fatalf("captures=%d, want 1", prof.Captures())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ent := range entries {
		if strings.Contains(ent.Name(), "divergence_rollback") && strings.HasSuffix(ent.Name(), ".pprof") {
			info, err := ent.Info()
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() == 0 {
				t.Fatalf("profile %s is empty", ent.Name())
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no divergence_rollback profile on disk: %v", entries)
	}
}

// TestTrainEmitsIterationSpans checks the training loop's span structure:
// phase spans parent under their iteration span, the component spans
// (model fit, env windows, cluster scaling) appear, and iteration spans
// root their traces.
func TestTrainEmitsIterationSpans(t *testing.T) {
	ring := obs.NewSpanRing(1 << 14)
	tracer := obs.NewTracer(obs.TracerConfig{Ring: ring, SimTime: true})

	e := newSpannedToyEnv(t, 43, tracer)
	cfg := tinyConfig(e, 43)
	cfg.Tracer = tracer
	agent, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Train(); err != nil {
		t.Fatal(err)
	}

	recs := ring.Records()
	iters := make(map[string]bool) // iteration span ids
	byName := make(map[string]int)
	for _, r := range recs {
		byName[r.Name]++
		if r.Name == "train.iteration" {
			iters[r.ID] = true
			if r.Parent != "" {
				t.Fatalf("iteration span has parent %q", r.Parent)
			}
		}
		if r.WallStart != 0 || r.WallDur != 0 {
			t.Fatalf("sim-time span %s leaked wall fields: %+v", r.Name, r)
		}
	}
	for _, name := range []string{"train.collect", "train.fit_model", "train.improve_policy",
		"train.health_guard", "train.evaluate", "model.fit", "env.window", "cluster.scale"} {
		if byName[name] == 0 {
			t.Fatalf("no %s spans emitted (got %v)", name, byName)
		}
	}
	for _, r := range recs {
		if strings.HasPrefix(r.Name, "train.") && r.Name != "train.iteration" && !iters[r.Parent] {
			t.Fatalf("%s span parent %q is not an iteration span", r.Name, r.Parent)
		}
	}
}
