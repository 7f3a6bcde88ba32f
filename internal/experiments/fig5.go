package experiments

import (
	"fmt"
	"math/rand"

	"miras/internal/env"
	"miras/internal/envmodel"
	"miras/internal/mat"
	"miras/internal/metrics"
	"miras/internal/trace"
)

// ModelAccuracyResult carries the Fig. 5 panels for one ensemble: the
// ground-truth trace versus one-step ("fixed input") and iterative
// predictions, for the immediate reward (mean of next-state WIP, as the
// paper plots) and the first WIP dimension.
type ModelAccuracyResult struct {
	// RewardTable holds ground-truth / one-step / iterative series of the
	// mean next-state WIP.
	RewardTable trace.Table
	// WIPTable holds the same three series for WIP dimension 0.
	WIPTable trace.Table
	// OneStepRMSE and IterRMSE quantify divergence on the reward series.
	OneStepRMSE float64
	IterRMSE    float64
	// TrainPoints and TestPoints record the dataset sizes used.
	TrainPoints, TestPoints int
	// FinalTrainLoss is the model's final-epoch training loss.
	FinalTrainLoss float64
}

// ModelAccuracy reproduces Fig. 5 for the given setup: collect
// s.CollectSteps random-action transitions, train the environment model,
// then collect a fresh s.TestPoints-step trace (random actions held for
// s.ActionHold steps, as §VI-B specifies) and compare ground truth with
// fixed-input and iterative predictions.
func ModelAccuracy(s Setup) (*ModelAccuracyResult, error) {
	h, err := BuildHarness(s, 0)
	if err != nil {
		return nil, err
	}
	rng := h.Streams.Stream("experiments/fig5")
	dataset := envmodel.NewDataset(h.Env.StateDim(), h.Env.StateDim())

	// Phase 1: random-action data collection with periodic resets (and
	// training bursts, matching the MIRAS collection protocol).
	hook := trainBurstHook(s, h)
	if err := collectRandom(h.Env, dataset, rng, s.CollectSteps, s.ResetEvery, hook); err != nil {
		return nil, err
	}

	// Phase 2: train the model on everything collected.
	model, err := envmodel.New(envmodel.Config{
		StateDim:  h.Env.StateDim(),
		ActionDim: h.Env.StateDim(),
		Hidden:    s.ModelHidden,
		Seed:      s.Seed + 11,
	})
	if err != nil {
		return nil, err
	}
	losses, err := model.Fit(dataset, s.ModelEpochs)
	if err != nil {
		return nil, err
	}

	// Phase 3: held-out test trace with actions held for ActionHold steps.
	states, actions, err := collectTestTrace(h.Env, rng, s.TestPoints, s.ActionHold)
	if err != nil {
		return nil, err
	}

	// Ground truth, one-step, and iterative series.
	truth := states[1:]
	one, iter := predictTrace(model, states, actions)
	wip0 := func(x []float64) float64 { return x[0] }
	res := &ModelAccuracyResult{
		TrainPoints:    dataset.Len(),
		TestPoints:     len(actions),
		FinalTrainLoss: losses[len(losses)-1],
	}
	res.RewardTable = trace.Table{
		Title:  fmt.Sprintf("fig5-%s-reward", s.EnsembleName),
		XLabel: "step", YLabel: "mean next WIP",
	}
	res.RewardTable.AddSeries("ground-truth", project(truth, mat.VecMean))
	res.RewardTable.AddSeries("one-step", project(one, mat.VecMean))
	res.RewardTable.AddSeries("iterative", project(iter, mat.VecMean))
	res.WIPTable = trace.Table{
		Title:  fmt.Sprintf("fig5-%s-wip0", s.EnsembleName),
		XLabel: "step", YLabel: "WIP[0]",
	}
	res.WIPTable.AddSeries("ground-truth", project(truth, wip0))
	res.WIPTable.AddSeries("one-step", project(one, wip0))
	res.WIPTable.AddSeries("iterative", project(iter, wip0))

	if res.OneStepRMSE, res.IterRMSE, err = predictionRMSE(model, states, actions); err != nil {
		return nil, err
	}
	return res, nil
}

// predictTrace replays p over a held-out trace (states has one more entry
// than actions): the one-step prediction of each next state from the true
// state (the paper's "fixed input", clamped non-negative like the real
// WIP), and the iterative rollout from states[0] on p's own predictions.
func predictTrace(p envmodel.Predictor, states, actions [][]float64) (oneStep, iterative [][]float64) {
	oneStep = make([][]float64, len(actions))
	for k, a := range actions {
		oneStep[k] = make([]float64, p.StateDim())
		p.PredictTo(oneStep[k], states[k], a)
		clampNonNegative(oneStep[k])
	}
	return oneStep, envmodel.Rollout(p, states[0], actions)
}

// predictionRMSE scores p on a held-out trace: the RMSE of the one-step and
// of the iterative prediction of the mean next-state WIP (Fig. 5's reward
// panel) against the truth.
func predictionRMSE(p envmodel.Predictor, states, actions [][]float64) (oneStep, iterative float64, err error) {
	truth := project(states[1:], mat.VecMean)
	one, iter := predictTrace(p, states, actions)
	if oneStep, err = metrics.RMSE(truth, project(one, mat.VecMean)); err != nil {
		return 0, 0, err
	}
	if iterative, err = metrics.RMSE(truth, project(iter, mat.VecMean)); err != nil {
		return 0, 0, err
	}
	return oneStep, iterative, nil
}

// project maps each state through f.
func project(states [][]float64, f func([]float64) float64) []float64 {
	out := make([]float64, len(states))
	for k, st := range states {
		out[k] = f(st)
	}
	return out
}

// collectRandom fills dataset with steps random-action transitions,
// resetting every resetEvery steps.
func collectRandom(e *env.Env, dataset *envmodel.Dataset, rng *rand.Rand, steps, resetEvery int, onReset func()) error {
	state := e.State()
	for i := 0; i < steps; i++ {
		if resetEvery > 0 && i%resetEvery == 0 {
			state = e.Reset()
			if onReset != nil {
				onReset()
				state = e.State()
			}
		}
		simplex := env.RandomSimplex(e.StateDim(), rng)
		m := env.SimplexToAllocation(simplex, e.Budget())
		frac := env.AllocationToSimplex(m, e.Budget())
		res, err := e.Step(m)
		if err != nil {
			return fmt.Errorf("experiments: collect step %d: %w", i, err)
		}
		dataset.Add(state, frac, res.State)
		state = res.State
	}
	return nil
}

// collectTestTrace records a contiguous trajectory of `points` transitions
// where the random action changes every `hold` steps. It returns the
// visited states (points+1 of them) and the applied action fractions.
func collectTestTrace(e *env.Env, rng *rand.Rand, points, hold int) (states, actions [][]float64, err error) {
	if hold <= 0 {
		hold = 1
	}
	states = append(states, mat.VecClone(e.Reset()))
	var m []int
	var frac []float64
	for k := 0; k < points; k++ {
		if k%hold == 0 {
			simplex := env.RandomSimplex(e.StateDim(), rng)
			m = env.SimplexToAllocation(simplex, e.Budget())
			frac = env.AllocationToSimplex(m, e.Budget())
		}
		res, err := e.Step(m)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: test trace step %d: %w", k, err)
		}
		states = append(states, mat.VecClone(res.State))
		actions = append(actions, mat.VecClone(frac))
	}
	return states, actions, nil
}

func clampNonNegative(x []float64) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}
