package experiments

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"miras/internal/checkpoint"
	"miras/internal/core"
)

func toySetup(t *testing.T) Setup {
	t.Helper()
	s, err := QuickSetup("msd")
	if err != nil {
		t.Fatal(err)
	}
	s.EnsembleName = "toy"
	s.Budget = 6
	s.Rates = []float64{0.3}
	s.TrainBurstMax = []int{40}
	s.StepsPerIteration = 60
	s.Iterations = 3
	s.PolicyEpisodes = 8
	s.ModelEpochs = 5
	s.EvalSteps = 8
	s.Seed = 77
	return s
}

// TestTrainingTraceResumeEquivalence interrupts a checkpointed training
// run at an iteration boundary and resumes it in a fresh harness,
// verifying the stitched-together run reproduces the uninterrupted run's
// statistics exactly.
func TestTrainingTraceResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-and-resume equivalence is slow; skipped in -short")
	}
	s := toySetup(t)

	golden, err := TrainingTrace(s)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	calls := 0
	stop := func() bool {
		calls++
		return calls == 3 // allow iterations 0 and 1, stop before 2
	}
	_, err = TrainingTraceOpts(s, TrainOptions{CheckpointDir: dir, Stop: stop})
	if !errors.Is(err, core.ErrStopped) {
		t.Fatalf("interrupted run returned %v, want ErrStopped", err)
	}
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ck trainCheckpoint
	if seq, err := store.LoadLatest(&ck); err != nil || seq != 2 {
		t.Fatalf("latest checkpoint seq=%d err=%v, want seq 2", seq, err)
	}

	resumed, err := TrainingTraceOpts(s, TrainOptions{CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(golden.Stats, resumed.Stats) {
		t.Fatalf("stats diverged after resume:\ngolden:  %+v\nresumed: %+v", golden.Stats, resumed.Stats)
	}
	probe := make([]float64, golden.Agent.DDPG().Snapshot().Actor.Layers[0].W.Cols)
	for i := range probe {
		probe[i] = float64(i)
	}
	ga, ra := golden.Agent.DDPG().Act(probe), resumed.Agent.DDPG().Act(probe)
	if !reflect.DeepEqual(ga, ra) {
		t.Fatalf("final policy diverged: %v != %v", ga, ra)
	}
}

// TestTrainingTraceResumeRejectsSetupMismatch makes sure a checkpoint from
// one configuration cannot silently seed a run with another.
func TestTrainingTraceResumeRejectsSetupMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a full quick setup; skipped in -short")
	}
	s := toySetup(t)
	s.Iterations = 1
	dir := filepath.Join(t.TempDir(), "ckpt")
	if _, err := TrainingTraceOpts(s, TrainOptions{CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	s2 := s
	s2.StepsPerIteration += 5
	if _, err := TrainingTraceOpts(s2, TrainOptions{CheckpointDir: dir, Resume: true}); err == nil {
		t.Fatal("resume accepted a checkpoint from a different setup")
	}
}

// TestTrainingTraceResumeFreshDir verifies Resume on an empty directory
// just starts from scratch.
func TestTrainingTraceResumeFreshDir(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a full quick setup; skipped in -short")
	}
	s := toySetup(t)
	s.Iterations = 1
	res, err := TrainingTraceOpts(s, TrainOptions{CheckpointDir: filepath.Join(t.TempDir(), "ckpt"), Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 1 {
		t.Fatalf("stats=%d, want 1", len(res.Stats))
	}
}
