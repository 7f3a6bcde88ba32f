package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"miras/internal/env"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTrainCheckpointResumeEquivalence proves the crash-safety contract:
// a run killed after iteration 1 and resumed from its checkpoint in a
// fresh process (fresh environment, fresh agent, same seeds) produces
// bit-identical statistics, checkpoints, and final policy to a run that
// was never interrupted.
func TestTrainCheckpointResumeEquivalence(t *testing.T) {
	const seed = 40
	iters := 3

	// Golden run: uninterrupted, checkpointing every iteration.
	eA := newToyEnv(t, seed)
	cfgA := tinyConfig(eA, seed)
	cfgA.Iterations = iters
	ckptsA := map[int][]byte{}
	cfgA.CheckpointFn = func(iter int, st *TrainState) error {
		ckptsA[iter] = mustJSON(t, st)
		return nil
	}
	aA, err := NewAgent(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	statsA, err := aA.Train()
	if err != nil {
		t.Fatal(err)
	}

	// Crashed run: identical configuration, aborted right after the
	// iteration-1 checkpoint is captured.
	errCrash := errors.New("simulated crash")
	eB := newToyEnv(t, seed)
	cfgB := tinyConfig(eB, seed)
	cfgB.Iterations = iters
	var ckptB []byte
	cfgB.CheckpointFn = func(iter int, st *TrainState) error {
		if iter == 1 {
			ckptB = mustJSON(t, st)
			return errCrash
		}
		return nil
	}
	aB, err := NewAgent(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aB.Train(); !errors.Is(err, errCrash) {
		t.Fatalf("crashed run returned %v, want simulated crash", err)
	}
	if !bytes.Equal(ckptB, ckptsA[1]) {
		t.Fatal("checkpoints diverged before the crash point")
	}

	// Resumed run: fresh environment and agent, restored from the crashed
	// run's last checkpoint, trained to completion.
	eC := newToyEnv(t, seed)
	cfgC := tinyConfig(eC, seed)
	cfgC.Iterations = iters
	ckptsC := map[int][]byte{}
	cfgC.CheckpointFn = func(iter int, st *TrainState) error {
		ckptsC[iter] = mustJSON(t, st)
		return nil
	}
	aC, err := NewAgent(cfgC)
	if err != nil {
		t.Fatal(err)
	}
	var st TrainState
	if err := json.Unmarshal(ckptB, &st); err != nil {
		t.Fatal(err)
	}
	if err := aC.RestoreTraining(&st); err != nil {
		t.Fatal(err)
	}
	statsC, err := aC.Train()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(statsA, statsC) {
		t.Fatalf("stats diverged after resume:\ngolden:  %+v\nresumed: %+v", statsA, statsC)
	}
	if !bytes.Equal(ckptsA[iters-1], ckptsC[iters-1]) {
		t.Fatal("final checkpoints differ between golden and resumed run")
	}
	probe := make([]float64, eA.StateDim())
	for i := range probe {
		probe[i] = float64(i + 1)
	}
	actA := aA.DDPG().Act(probe)
	actC := aC.DDPG().Act(probe)
	for i := range actA {
		if actA[i] != actC[i] {
			t.Fatalf("final policy diverged at %d: %g != %g", i, actA[i], actC[i])
		}
	}
}

// TestTrainRollbackOnDivergence poisons the critic with NaN between
// iterations and verifies the divergence guard restores the learner from
// the last healthy iteration, records the rollback in the stats and in
// Rollbacks, and finishes training with finite weights.
func TestTrainRollbackOnDivergence(t *testing.T) {
	e := newToyEnv(t, 41)
	cfg := tinyConfig(e, 41)
	var agent *Agent
	cfg.CheckpointFn = func(iter int, st *TrainState) error {
		if iter == 0 {
			agent.DDPG().Critic().Layers[0].W.Data[0] = math.NaN()
		}
		return nil
	}
	agent, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := agent.Train()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("iterations=%d, want 2", len(stats))
	}
	if stats[0].RolledBack {
		t.Fatal("healthy iteration marked rolled back")
	}
	if !stats[1].RolledBack {
		t.Fatal("poisoned iteration not rolled back")
	}
	if agent.Rollbacks() != 1 {
		t.Fatalf("rollbacks=%d, want 1", agent.Rollbacks())
	}
	if err := agent.DDPG().CheckHealth(0); err != nil {
		t.Fatalf("agent unhealthy after rollback: %v", err)
	}
	if math.IsNaN(stats[1].EvalReturn) || math.IsInf(stats[1].EvalReturn, 0) {
		t.Fatalf("post-rollback evaluation not finite: %g", stats[1].EvalReturn)
	}
}

// TestTrainStopFn verifies a cooperative stop request surfaces as
// ErrStopped without running any iterations.
func TestTrainStopFn(t *testing.T) {
	e := newToyEnv(t, 42)
	cfg := tinyConfig(e, 42)
	cfg.StopFn = func() bool { return true }
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := a.Train()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err=%v, want ErrStopped", err)
	}
	if len(stats) != 0 {
		t.Fatalf("stats=%d, want 0", len(stats))
	}
}

// TestRestoreTrainingRejectsCorruptState checks that malformed checkpoints
// are refused with errors rather than panics.
func TestRestoreTrainingRejectsCorruptState(t *testing.T) {
	const seed = 43
	e := newToyEnv(t, seed)
	cfg := tinyConfig(e, seed)
	var captured []byte
	cfg.CheckpointFn = func(iter int, st *TrainState) error {
		if captured == nil {
			captured = mustJSON(t, st)
		}
		return nil
	}
	cfg.Iterations = 1
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(); err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(st *TrainState){
		"nil agent":      func(st *TrainState) { st.Agent = nil },
		"nil model":      func(st *TrainState) { st.Model = nil },
		"nil dataset":    func(st *TrainState) { st.Dataset = nil },
		"iter range":     func(st *TrainState) { st.Iter = 99 },
		"missing best":   func(st *TrainState) { st.BestActor = nil },
		"bad env op":     func(st *TrainState) { st.EnvLog[0] = env.Op{Kind: "zz"} },
		"env digest":     func(st *TrainState) { st.EnvDigest++ },
		"nan rl weight":  func(st *TrainState) { st.Agent.Critic.Layers[0].W.Data[0] = math.NaN() },
		"nan net weight": func(st *TrainState) { st.Model.Net.Layers[0].W.Data[0] = math.Inf(1) },
	}
	for name, corrupt := range cases {
		var st TrainState
		if err := json.Unmarshal(captured, &st); err != nil {
			t.Fatal(err)
		}
		corrupt(&st)
		fresh, err := NewAgent(tinyConfig(newToyEnv(t, seed), seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreTraining(&st); err == nil {
			t.Errorf("%s: RestoreTraining accepted corrupt state", name)
		}
	}

	// The unmodified checkpoint restores cleanly.
	var st TrainState
	if err := json.Unmarshal(captured, &st); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewAgent(tinyConfig(newToyEnv(t, seed), seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreTraining(&st); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
}

// TestRestoreVerifiesReplayedEnv pins the hook contract: replay does not
// rerun ResetHook, so a burst the hook injects survives a resume only if it
// goes through Env.InjectBurst. A hook that bursts through the Generator
// directly leaves the replayed environment short of the checkpointed one,
// and RestoreTraining must refuse instead of continuing a different run.
func TestRestoreVerifiesReplayedEnv(t *testing.T) {
	const seed = 44
	for _, logged := range []bool{true, false} {
		config := func() Config {
			e := newToyEnv(t, seed)
			cfg := tinyConfig(e, seed)
			cfg.Iterations = 1
			cfg.ResetHook = func() {
				if logged {
					_ = e.InjectBurst([]int{7})
				} else {
					_ = e.Generator().InjectBurst([]int{7})
				}
			}
			return cfg
		}
		cfg := config()
		var ckpt []byte
		cfg.CheckpointFn = func(_ int, st *TrainState) error {
			ckpt = mustJSON(t, st)
			return nil
		}
		a, err := NewAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Train(); err != nil {
			t.Fatal(err)
		}
		var st TrainState
		if err := json.Unmarshal(ckpt, &st); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewAgent(config())
		if err != nil {
			t.Fatal(err)
		}
		err = fresh.RestoreTraining(&st)
		switch {
		case logged && err != nil:
			t.Fatalf("hook bursting through Env.InjectBurst: restore failed: %v", err)
		case !logged && (err == nil || !strings.Contains(err.Error(), "digest")):
			t.Fatalf("hook bursting through the Generator: restore returned %v, want a digest mismatch", err)
		}
	}
}
