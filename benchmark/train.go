package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"miras/internal/core"
	"miras/internal/envmodel"
	"miras/internal/experiments"
	"miras/internal/invariant"
	"miras/internal/mat"
	"miras/internal/nn"
	"miras/internal/parallel"
	"miras/internal/rl"
)

// trainRig is one training run's real environment and untrained agent,
// wired as experiments.TrainingTrace wires them (bursts hooked in, same
// seed offsets), but with the agent's phases exposed so each can be timed
// from outside.
type trainRig struct {
	setup experiments.Setup
	agent *core.Agent
}

// trainSetup is the medium MSD preset, shrunk to seconds of work in smoke
// mode. Iterations is unused: the loop runs until its time budget is spent.
func trainSetup(cfg runConfig) (experiments.Setup, error) {
	if cfg.Smoke {
		s, err := experiments.QuickSetup("msd")
		if err != nil {
			return s, err
		}
		s.StepsPerIteration = 50
		s.PolicyEpisodes = 8
		s.ModelEpochs = 3
		s.Seed = cfg.Seed
		return s, nil
	}
	s, err := experiments.MediumSetup("msd")
	s.Seed = cfg.Seed
	return s, err
}

func buildTrainRig(s experiments.Setup) (*trainRig, error) {
	h, err := experiments.BuildHarness(s, 100)
	if err != nil {
		return nil, err
	}
	// The two hooks repeat experiments' unexported trainBurstHook and
	// evalBurstHook; TestTrainRigMatchesTrainingTrace holds them to it.
	burstRng := h.Streams.Stream("experiments/train-bursts")
	resetHook := func() {
		if burstRng.Float64() < 0.5 {
			return
		}
		counts := make([]int, len(s.TrainBurstMax))
		for i, m := range s.TrainBurstMax {
			counts[i] = burstRng.Intn(m + 1)
		}
		_ = h.Generator.InjectBurst(counts) // arity fixed by the setup
	}
	evalCounts := make([]int, len(s.TrainBurstMax))
	for i, m := range s.TrainBurstMax {
		evalCounts[i] = m / 2
	}
	agent, err := core.NewAgent(core.Config{
		Env:               h.Env,
		ResetHook:         resetHook,
		EvalHook:          func() { _ = h.Generator.InjectBurst(evalCounts) },
		ModelHidden:       s.ModelHidden,
		ModelEpochs:       s.ModelEpochs,
		RL:                rl.Config{Hidden: s.RLHidden, RewardScale: 1.0 / float64(10*s.Budget)},
		StepsPerIteration: s.StepsPerIteration,
		ResetEvery:        s.ResetEvery,
		RolloutLen:        s.RolloutLen,
		EvalSteps:         s.EvalSteps,
		PolicyEpisodes:    s.PolicyEpisodes,
		Seed:              s.Seed + 21,
	})
	if err != nil {
		return nil, err
	}
	return &trainRig{setup: s, agent: agent}, nil
}

// iterTiming is one Algorithm-2 iteration as seen from outside.
type iterTiming struct {
	wall, collect, fit, improve, eval time.Duration
	cpu                               time.Duration // process CPU time
	updates                           uint64
	stats                             core.IterationStats
}

// iteration runs outer iteration it — collect, fit, improve, evaluate, the
// order and arguments of core.Agent.Train — with a span around each phase.
func (r *trainRig) iteration(it int, tr *tracer) (iterTiming, error) {
	var t iterTiming
	a := r.agent
	before := a.DDPG().Updates()
	start, cpu0 := time.Now(), cpuTime()
	root := tr.start("core.iteration", noSpan)
	phase := func(name string, d *time.Duration, fn func() error) error {
		t0 := time.Now()
		id := tr.start(name, root)
		err := fn()
		tr.end(id)
		*d = time.Since(t0)
		return err
	}
	err := phase("core.collect", &t.collect, func() error {
		return a.CollectReal(r.setup.StepsPerIteration, it == 0)
	})
	if err == nil {
		err = phase("core.fit_model", &t.fit, func() (err error) {
			t.stats.ModelLoss, err = a.FitModel()
			return err
		})
	}
	if err == nil {
		err = phase("core.improve_policy", &t.improve, func() (err error) {
			t.stats.PolicyEpisodes, t.stats.SyntheticReturn, err = a.ImprovePolicy()
			return err
		})
	}
	if err == nil {
		err = phase("core.evaluate", &t.eval, func() (err error) {
			t.stats.EvalReturn, err = a.Evaluate()
			return err
		})
	}
	tr.end(root)
	t.wall, t.cpu = time.Since(start), cpuTime()-cpu0
	t.updates = a.DDPG().Updates() - before
	t.stats.Iteration = it
	t.stats.DatasetSize = a.Dataset().Len()
	t.stats.NoiseSigma = a.DDPG().NoiseSigma()
	return t, err
}

// statsDigest folds every field of every iteration's statistics, bit for
// bit, so two runs of one seed can be compared by a single number.
func statsDigest(stats []core.IterationStats) uint64 {
	d := invariant.NewDigest()
	for _, s := range stats {
		d.Int(s.Iteration).Int(s.DatasetSize).Float64(s.ModelLoss).
			Int(s.PolicyEpisodes).Float64(s.SyntheticReturn).
			Float64(s.EvalReturn).Float64(s.NoiseSigma)
		if s.RolledBack {
			d.Int(1)
		} else {
			d.Int(0)
		}
	}
	return d.Sum()
}

func runTrain(cfg runConfig) (*runResult, error) {
	res := newResult("train-msd", cfg.Traced)
	s, err := trainSetup(cfg)
	if err != nil {
		return nil, err
	}
	var rig *trainRig
	setup, err := medianSetup(cfg, func() (err error) {
		rig, err = buildTrainRig(s)
		return err
	})
	if err != nil {
		return nil, err
	}

	tr := newTracer(1 << 12)
	tr.on.Store(cfg.Traced)
	budget := secs(cfg.Seconds)
	if cfg.Traced {
		// The layer probes that follow the loop need their share of the run.
		budget = secs(cfg.Seconds * 0.6)
	}
	p0 := readProc()
	var iters []iterTiming
	for start := time.Now(); ; {
		it, err := rig.iteration(len(iters), tr)
		if err != nil {
			return nil, err
		}
		iters = append(iters, it)
		// Stop when the next iteration would overrun the budget.
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(iters)) > budget {
			break
		}
	}
	p1 := readProc()

	var wall, collect, fit, improve, eval time.Duration
	var updates uint64
	var cpu time.Duration
	var cpuPerUpdateUs []float64
	stats := make([]core.IterationStats, len(iters))
	for i, it := range iters {
		wall += it.wall
		cpu += it.cpu
		collect += it.collect
		fit += it.fit
		improve += it.improve
		eval += it.eval
		updates += it.updates
		stats[i] = it.stats
		if it.updates > 0 {
			cpuPerUpdateUs = append(cpuPerUpdateUs, float64(it.cpu.Microseconds())/float64(it.updates))
		}
		if want := (i + 1) * s.StepsPerIteration; it.stats.DatasetSize != want {
			res.problemf("iteration %d: dataset size %d, want %d", i, it.stats.DatasetSize, want)
		}
		for _, v := range []float64{it.stats.ModelLoss, it.stats.SyntheticReturn, it.stats.EvalReturn} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				res.problemf("iteration %d: non-finite statistic %v", i, it.stats)
				break
			}
		}
	}
	res.Attempted = len(iters) + 1
	if updates == 0 {
		res.problemf("no DDPG update ran in %d iterations", len(iters))
		updates = 1
	}

	// Same seed, same numbers: replay iteration 0 on a fresh rig and compare
	// it bit for bit with the one that was measured.
	again, err := buildTrainRig(s)
	if err != nil {
		return nil, err
	}
	first, err := again.iteration(0, newTracer(0))
	if err != nil {
		return nil, err
	}
	if a, b := statsDigest(stats[:1]), statsDigest([]core.IterationStats{first.stats}); a != b {
		res.problemf("iteration 0 is not reproducible: digest %016x, then %016x", a, b)
	}

	m := res.Metrics
	if !cfg.Traced {
		m["setup_s"] = setup.Seconds()
		// Both in CPU time: an iteration is the smallest unit visible from
		// outside, and seconds long — no statistic over iterations can keep
		// the host's stolen slices out of a wall clock. The wall-clock rate
		// is the traced run's core.updates_per_s.
		m["cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(updates)
		m["op_p50_us"] = median(cpuPerUpdateUs)
		return res, nil
	}

	m["core.iterations"] = float64(len(iters))
	m["core.train_wall_s"] = wall.Seconds()
	m["core.updates_per_s"] = float64(updates) / wall.Seconds()
	m["core.collect_s"] = collect.Seconds()
	m["core.fit_model_s"] = fit.Seconds()
	m["core.improve_policy_s"] = improve.Seconds()
	m["core.evaluate_s"] = eval.Seconds()
	m["core.improve_share_pct"] = 100 * improve.Seconds() / wall.Seconds()
	m["core.phases_explained_pct"] = 100 * (collect + fit + improve + eval).Seconds() / wall.Seconds()
	episodes := 0
	for _, st := range stats {
		episodes += st.PolicyEpisodes
	}
	m["core.policy_episodes"] = float64(episodes)
	m["core.dataset_size"] = float64(rig.agent.Dataset().Len())
	m["core.stats_digest"] = float64(uint32(statsDigest(stats)))
	m["core.eval_return"] = stats[len(stats)-1].EvalReturn
	m["rl.updates"] = float64(updates)
	m["envmodel.dataset_rows"] = float64(rig.agent.Dataset().Len())
	procMetrics(m, p0, p1, int(updates))
	spans := tr.recorded()
	m["proc.spans"] = float64(tr.total())
	m["proc.spans_dropped"] = float64(tr.dropped.Load())
	// Five spans per multi-second iteration: the traced loop is the
	// untraced loop, and the overhead is what those spans cost.
	m["proc.tracing_overhead_pct"] = 100 * float64(len(spans)) * spanCostNs() / float64(wall.Nanoseconds())
	if cfg.SpansOut != "" {
		if err := tr.dump(cfg.SpansOut); err != nil {
			return nil, err
		}
	}

	if err := trainProbes(m, rig, secs(cfg.Seconds*0.03)); err != nil {
		return nil, err
	}
	// One rollout step of ImprovePolicy is an action, a model prediction and
	// a DDPG update; the refiner is rebuilt once per iteration.
	explained := float64(updates)*(m["rl.update_us"]+m["rl.act_explore_us"]+m["envmodel.predict_us"]) +
		float64(len(iters))*m["envmodel.refiner_build_us"]
	m["core.improve_explained_pct"] = 100 * explained / float64(improve.Microseconds())
	return res, nil
}

// trainProbes times the layers below core on the trained agent's own
// networks, model and dataset, each for about d. It runs after the measured
// loop because it trains the agent further.
func trainProbes(m map[string]float64, rig *trainRig, d time.Duration) error {
	a := rig.agent
	ddpg, model, data := a.DDPG(), a.Model(), a.Dataset()
	// The replay check just before left a rig's worth of garbage; a
	// collection running beside the probes would take one of two cores.
	runtime.GC()
	rng := rand.New(rand.NewSource(rig.setup.Seed))
	state := data.At(0).State
	action := data.At(0).Action

	m["rl.update_us"] = probeUs(d, 1, func() { ddpg.Update() })
	ddpg.BeginEpisode()
	m["rl.act_explore_us"] = probeUs(d, 1, func() { ddpg.ActExplore(state) })

	const batch = 64
	actor, critic := ddpg.Actor(), ddpg.Critic()
	x := mat.New(batch, actor.InDim())
	aux := mat.New(batch, actor.OutDim())
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range aux.Data {
		aux.Data[i] = rng.Float64()
	}
	passes := func(net *nn.Network, aux *mat.Matrix) (fwd, bwd float64) {
		cache := nn.NewBatchCache(net, batch)
		grads := nn.NewGrads(net)
		dOut := mat.New(batch, net.OutDim())
		for i := 0; i < batch; i++ {
			dOut.Row(i)[0] = 1
		}
		fwd = probeUs(d, 1, func() { net.ForwardBatch(cache, x, aux) })
		bwd = probeUs(d, 1, func() { net.BackwardBatch(cache, dOut, grads) })
		return fwd, bwd
	}
	af, ab := passes(actor, nil)
	cf, cb := passes(critic, aux)
	m["nn.forward_batch_us"], m["nn.backward_batch_us"] = af, ab
	m["nn.critic_forward_batch_us"], m["nn.critic_backward_batch_us"] = cf, cb
	// DDPG.Update: target actor, target critic and critic forward, critic
	// backward; then actor forward, critic forward, critic backward for
	// dQ/da, actor backward. The rest is Adam, clipping and soft updates.
	m["rl.update_explained_pct"] = 100 * (2*af + 3*cf + 2*cb + ab) / m["rl.update_us"]
	cache := nn.NewCache(actor)
	m["nn.forward_us"] = probeUs(d, 1, func() { actor.ForwardCache(cache, state, nil) })

	// The GEMM behind a hidden layer's forward pass: batch x width times
	// (width x width) transposed.
	width := rig.setup.RLHidden[0]
	ga, gw, gd := mat.New(batch, width), mat.New(width, width), mat.New(batch, width)
	for i := range ga.Data {
		ga.Data[i] = rng.NormFloat64()
	}
	for i := range gw.Data {
		gw.Data[i] = rng.NormFloat64()
	}
	m["mat.gemm_us"] = probeUs(d, 1, func() { gd.MulTransTo(ga, gw) })
	m["mat.gemm_gflops"] = 2 * float64(batch*width*width) / m["mat.gemm_us"] / 1e3
	m["parallel.workers"] = float64(parallel.MaxWorkers())

	var fitErr error
	m["envmodel.fit_epoch_us"] = probeUs(d, 1, func() {
		if _, err := model.Fit(data, 1); err != nil {
			fitErr = err
		}
	})
	if fitErr != nil {
		return fmt.Errorf("envmodel fit probe: %w", fitErr)
	}
	var ref *envmodel.Refiner
	var refErr error
	m["envmodel.refiner_build_us"] = probeUs(d, 1, func() {
		ref, refErr = envmodel.NewRefiner(model, data, envmodel.DefaultPercentile, rng)
	})
	if refErr != nil {
		return fmt.Errorf("envmodel refiner probe: %w", refErr)
	}
	out := make([]float64, model.StateDim())
	m["envmodel.predict_us"] = probeUs(d, 1, func() { ref.PredictTo(out, state, action) })
	runtime.KeepAlive(out)
	return nil
}
