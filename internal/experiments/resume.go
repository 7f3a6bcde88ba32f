package experiments

import (
	"errors"
	"fmt"

	"miras/internal/checkpoint"
	"miras/internal/core"
	"miras/internal/invariant"
	"miras/internal/trace"
)

// TrainOptions extends TrainingTrace with crash-safety controls. The zero
// value behaves exactly like plain TrainingTrace.
type TrainOptions struct {
	// CheckpointDir, when non-empty, enables a checkpoint store there and
	// writes one full-training-state checkpoint per outer iteration.
	CheckpointDir string
	// Resume loads the newest valid checkpoint from CheckpointDir before
	// training and continues from it; an empty directory starts fresh.
	Resume bool
	// Stop is polled at every iteration boundary; returning true stops
	// training cleanly with core.ErrStopped after the iteration's
	// checkpoint has been written.
	Stop func() bool
}

// trainCheckpoint is the on-disk payload: the core training state wrapped
// with a digest of the Setup that produced it, so a checkpoint cannot be
// silently resumed under a different configuration (which would desync the
// replayed environment from the restored learner), and the training-burst
// draws so far (see trainBursts).
type trainCheckpoint struct {
	SetupDigest uint64           `json:"setup_digest"`
	TrainBursts int              `json:"train_bursts"`
	State       *core.TrainState `json:"state"`
}

// setupDigest folds every trajectory-affecting Setup field into one
// 64-bit fingerprint.
func setupDigest(s Setup) uint64 {
	d := invariant.NewDigest().
		String(s.EnsembleName).
		Int(s.Budget).
		Float64(s.WindowSec).
		Floats(s.Rates).
		Int(s.CollectSteps).
		Int(s.TestPoints).
		Int(s.ActionHold).
		Int(s.StepsPerIteration).
		Int(s.ResetEvery).
		Int(s.RolloutLen).
		Int(s.EvalSteps).
		Int(s.Iterations).
		Int(s.PolicyEpisodes).
		Int(s.ModelEpochs).
		Ints(s.ModelHidden).
		Ints(s.RLHidden).
		Int(s.CompareWindows).
		Ints(s.TrainBurstMax).
		Int(int(s.Seed))
	return d.Sum()
}

// TrainingTraceOpts is TrainingTrace with checkpoint/resume support: it
// runs the full Algorithm 2 loop, optionally writing a crash-safe
// checkpoint after every outer iteration and optionally continuing a
// previously interrupted run. A resumed run reproduces the uninterrupted
// run's trajectory bit for bit.
//
// When opts.Stop requests a halt, the partial result is returned together
// with core.ErrStopped; everything completed so far is checkpointed.
func TrainingTraceOpts(s Setup, opts TrainOptions) (*TrainingResult, error) {
	h, err := BuildHarness(s, 100)
	if err != nil {
		return nil, err
	}
	bursts := newTrainBursts(s, h)
	cfg := mirasConfig(s, h, bursts)
	cfg.StopFn = opts.Stop
	digest := setupDigest(s)
	var store *checkpoint.Store
	if opts.CheckpointDir != "" {
		store, err = checkpoint.NewStore(opts.CheckpointDir)
		if err != nil {
			return nil, err
		}
		cfg.CheckpointFn = func(iter int, st *core.TrainState) error {
			return store.Save(iter+1, trainCheckpoint{SetupDigest: digest, TrainBursts: bursts.draws, State: st})
		}
	}
	agent, err := core.NewAgent(cfg)
	if err != nil {
		return nil, err
	}
	if opts.Resume {
		if store == nil {
			return nil, fmt.Errorf("experiments: resume requires a checkpoint dir")
		}
		var ck trainCheckpoint
		switch _, err := store.LoadLatest(&ck); {
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Nothing written yet: start from scratch.
		case err != nil:
			return nil, fmt.Errorf("experiments: resume: %w", err)
		default:
			if ck.SetupDigest != digest {
				return nil, fmt.Errorf("experiments: checkpoint setup digest %016x does not match current setup %016x",
					ck.SetupDigest, digest)
			}
			if err := agent.RestoreTraining(ck.State); err != nil {
				return nil, fmt.Errorf("experiments: resume: %w", err)
			}
			for bursts.draws < ck.TrainBursts {
				bursts.draw()
			}
		}
	}
	stats, err := agent.Train()
	if err != nil {
		return nil, err
	}
	table := trace.Table{
		Title:  fmt.Sprintf("fig6-%s-training", s.EnsembleName),
		XLabel: "iteration",
		YLabel: fmt.Sprintf("aggregated reward over %d steps", s.EvalSteps),
	}
	rewards := make([]float64, len(stats))
	for i, st := range stats {
		rewards[i] = st.EvalReturn
	}
	table.AddSeries("miras", rewards)
	return &TrainingResult{Stats: stats, Table: table, Agent: agent}, nil
}
