package main

import (
	"fmt"
	"sort"
	"time"

	"miras/internal/baselines"
	"miras/internal/env"
	"miras/internal/experiments"
	"miras/internal/invariant"
	"miras/internal/sim"
	"miras/internal/workload"
)

// emuHarness is one ensemble's emulated system with the paper's three burst
// sizes and three baseline controllers to drive it.
type emuHarness struct {
	name   string
	h      *experiments.Harness
	bursts [][]int
	ctrls  []env.Controller
}

// emuRig is the emulate-burst workload: the msd and ligo harnesses at paper
// scale. One round runs every (ensemble, burst, controller) combination
// once, so every round is the same mix of work.
type emuRig struct {
	harnesses []*emuHarness
	windows   int
}

func buildEmuRig(cfg runConfig) (*emuRig, error) {
	rig := &emuRig{windows: 40}
	if cfg.Smoke {
		rig.windows = 5
	}
	for _, name := range []string{"msd", "ligo"} {
		s, err := experiments.PaperSetup(name)
		if err != nil {
			return nil, err
		}
		s.Seed = cfg.Seed
		h, err := experiments.BuildHarness(s, 0)
		if err != nil {
			return nil, err
		}
		bursts, err := workload.PaperBursts(name)
		if err != nil {
			return nil, err
		}
		rig.harnesses = append(rig.harnesses, &emuHarness{
			name:   name,
			h:      h,
			bursts: bursts,
			ctrls: []env.Controller{
				baselines.NewHPA(s.Budget),
				baselines.NewHEFT(h.Cluster.Ensemble(), s.Budget),
				baselines.NewDRS(s.Budget, s.WindowSec),
			},
		})
	}
	return rig, nil
}

func (r *emuRig) windowsPerRound() int {
	n := 0
	for _, eh := range r.harnesses {
		n += len(eh.bursts) * len(eh.ctrls) * r.windows
	}
	return n
}

// round runs every combination once: the decide/step loop of env.Run, by
// hand so that each call can be timed — by a span when the tracer is on,
// otherwise by appending the window's wall time (decision plus step, in
// microseconds) to windowUs. dig, when non-nil, folds every window's reward
// and state.
func (r *emuRig) round(tr *tracer, dig *invariant.Digest, windowUs *[]float64) error {
	for _, eh := range r.harnesses {
		e := eh.h.Env
		for _, burst := range eh.bursts {
			for _, ctrl := range eh.ctrls {
				root := tr.start("emulate.episode", noSpan)
				id := tr.start("env.reset", root)
				e.Reset()
				tr.end(id)
				id = tr.start("workload.inject_burst", root)
				err := eh.h.Generator.InjectBurst(burst)
				tr.end(id)
				if err != nil {
					return err
				}
				ctrl.Reset()
				prev := env.StepResult{State: e.State(), Stats: env.Stats{
					WIP:       e.Cluster().WIP(),
					Consumers: e.Cluster().Consumers(),
				}}
				for k := 0; k < r.windows; k++ {
					t0 := time.Now()
					id := tr.start("baselines.decide", root)
					m := ctrl.Decide(prev)
					tr.end(id)
					id = tr.start("env.step", root)
					res, err := e.Step(m)
					tr.end(id)
					if err != nil {
						return fmt.Errorf("%s window %d (%s): %w", eh.name, k, ctrl.Name(), err)
					}
					if windowUs != nil && root == noSpan {
						*windowUs = append(*windowUs, float64(time.Since(t0).Nanoseconds())/1e3)
					}
					if dig != nil {
						dig.Float64(res.Reward).Floats(res.State)
					}
					prev = res
				}
				tr.end(root)
			}
		}
	}
	return nil
}

func runEmulate(cfg runConfig) (*runResult, error) {
	res := newResult("emulate-burst", cfg.Traced)
	var rig *emuRig
	setup, err := medianSetup(cfg, func() (err error) {
		rig, err = buildEmuRig(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	perRound := rig.windowsPerRound()

	budget := secs(cfg.Seconds)
	if cfg.Traced {
		budget = secs(cfg.Seconds * 0.6)
	}
	tr := newTracer(1 << 19)
	firstDigest := invariant.NewDigest()
	var roundUs [2][]float64 // per-window microseconds of each round, by traced
	var roundCPUUs, windowUs []float64
	p0 := readProc()
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < budget; n++ {
		// A traced run alternates traced and untraced rounds; the gap
		// between the two is the tracing overhead.
		traced := cfg.Traced && n%2 == 1
		tr.on.Store(traced)
		var dig *invariant.Digest
		if n == 0 {
			dig = firstDigest
		}
		t0, cpu0 := time.Now(), cpuTime()
		if err := rig.round(tr, dig, &windowUs); err != nil {
			return nil, err
		}
		k := 0
		if traced {
			k = 1
		}
		roundUs[k] = append(roundUs[k], float64(time.Since(t0).Nanoseconds())/1e3/float64(perRound))
		roundCPUUs = append(roundCPUUs, float64((cpuTime()-cpu0).Microseconds())/float64(perRound))
	}
	wall := time.Since(start)
	tr.on.Store(false)
	p1 := readProc()
	rounds := len(roundUs[0]) + len(roundUs[1])
	windows := rounds * perRound
	res.Attempted = windows/rig.windows + 1

	// Conservation: every submitted workflow instance is completed, in
	// flight, dropped or abandoned by a reset — none is lost.
	var submitted, completed uint64
	conserved := 1.0
	for _, eh := range rig.harnesses {
		c := eh.h.Cluster
		submitted += c.Submitted()
		completed += c.CompletedInstances()
		if got := c.CompletedInstances() + uint64(c.InFlight()) + c.Dropped() + c.Abandoned(); got != c.Submitted() {
			conserved = 0
			res.problemf("%s: %d instances submitted but %d accounted for", eh.name, c.Submitted(), got)
		}
	}
	// Same seed, same trajectory: replay round 0 on a fresh rig.
	again, err := buildEmuRig(cfg)
	if err != nil {
		return nil, err
	}
	repeat := invariant.NewDigest()
	if err := again.round(newTracer(0), repeat, nil); err != nil {
		return nil, err
	}
	if firstDigest.Sum() != repeat.Sum() {
		res.problemf("round 0 is not reproducible: digest %016x, then %016x", firstDigest.Sum(), repeat.Sum())
	}

	m := res.Metrics
	if !cfg.Traced {
		m["setup_s"] = setup.Seconds()
		// Medians over rounds (each the same mix of work) and over windows:
		// a slice the host withholds costs one of them, not the mean.
		m["cpu_us_per_op"] = median(roundCPUUs)
		m["op_p50_us"] = median(windowUs)
		return res, nil
	}

	spans := tr.recorded()
	agg := aggregate(spans)
	m["env.windows_per_s"] = 1e6 / median(roundUs[0])
	m["env.step_us"] = agg["env.step"].meanUs()
	m["env.reset_us"] = agg["env.reset"].meanUs()
	m["workload.inject_burst_us"] = agg["workload.inject_burst"].meanUs()
	m["baselines.decide_us"] = agg["baselines.decide"].meanUs()
	var stepUs []float64
	for _, s := range spans {
		if s.Name == "env.step" {
			stepUs = append(stepUs, float64(s.End-s.Start)/1e3)
		}
	}
	sort.Float64s(stepUs)
	m["env.step_p99_us"] = quantile(stepUs, 0.99)
	m["cluster.submitted"] = float64(submitted)
	m["cluster.completions"] = float64(completed)
	m["cluster.completions_per_s"] = float64(completed) / wall.Seconds()
	m["cluster.conservation_ok"] = conserved
	procMetrics(m, p0, p1, windows)
	m["proc.spans"] = float64(tr.total())
	m["proc.spans_dropped"] = float64(tr.dropped.Load())
	if len(roundUs[1]) > 0 {
		m["proc.tracing_overhead_pct"] = 100 * (median(roundUs[1])/median(roundUs[0]) - 1)
	}
	if cfg.SpansOut != "" {
		if err := tr.dump(cfg.SpansOut); err != nil {
			return nil, err
		}
	}
	if err := clusterProbe(m, cfg, secs(cfg.Seconds*0.1)); err != nil {
		res.problemf("%v", err)
	}
	m["sim.event_ns"] = simEventNs(secs(cfg.Seconds * 0.03))
	return res, nil
}

// clusterProbe splits a control window into the cluster calls env.Step makes.
// Two rigs built from one seed run the workload's rounds for about d: the
// first plays each episode through env.Step, so the controllers see real
// statistics, and notes the allocations; the twin then replays the episode
// through the cluster's own methods, each timed on its own. Equal WIP after
// every window shows the twin did the same work.
func clusterProbe(m map[string]float64, cfg runConfig, d time.Duration) error {
	lead, err := buildEmuRig(cfg)
	if err != nil {
		return err
	}
	twin, err := buildEmuRig(cfg)
	if err != nil {
		return err
	}
	var set, advance, drain time.Duration
	windows := 0
	allocs := make([][]int, lead.windows)
	states := make([][]float64, lead.windows)
	for start := time.Now(); windows == 0 || time.Since(start) < d; {
		for i, a := range lead.harnesses {
			b := twin.harnesses[i]
			c := b.h.Cluster
			windowSec := b.h.Env.WindowSec()
			for _, burst := range a.bursts {
				for _, ctrl := range a.ctrls {
					a.h.Env.Reset()
					if err := a.h.Generator.InjectBurst(burst); err != nil {
						return err
					}
					ctrl.Reset()
					prev := env.StepResult{State: a.h.Env.State(), Stats: env.Stats{
						WIP:       a.h.Cluster.WIP(),
						Consumers: a.h.Cluster.Consumers(),
					}}
					for k := range allocs {
						allocs[k] = append(allocs[k][:0], ctrl.Decide(prev)...)
						if prev, err = a.h.Env.Step(allocs[k]); err != nil {
							return err
						}
						states[k] = prev.State
					}

					c.Clear()
					if err := b.h.Generator.InjectBurst(burst); err != nil {
						return err
					}
					for k, alloc := range allocs {
						t0 := time.Now()
						if err := c.SetConsumers(alloc); err != nil {
							return err
						}
						t1 := time.Now()
						c.AdvanceTo(c.Now() + windowSec)
						t2 := time.Now()
						c.Snapshot()
						wip := c.WIP()
						c.DrainCompletions()
						t3 := time.Now()
						set += t1.Sub(t0)
						advance += t2.Sub(t1)
						drain += t3.Sub(t2)
						windows++
						for j := range wip {
							if wip[j] != states[k][j] {
								return fmt.Errorf("cluster probe: twin WIP %v differs from env state %v (%s window %d)", wip, states[k], a.name, k)
							}
						}
					}
				}
			}
		}
	}
	per := func(t time.Duration) float64 { return float64(t.Nanoseconds()) / 1e3 / float64(windows) }
	m["cluster.set_consumers_us"] = per(set)
	m["cluster.advance_us"] = per(advance)
	m["cluster.drain_us"] = per(drain)
	return nil
}

// simEventNs times the raw event engine: one Schedule plus one Step with a
// thousand events pending, which is the queue depth a burst leaves behind.
func simEventNs(d time.Duration) float64 {
	engine := sim.NewEngine()
	noop := func() {}
	for i := 0; i < 1000; i++ {
		engine.Schedule(sim.Time(i%97)+1, noop)
	}
	const batch = 1000
	return 1e3 * probeUs(d, batch, func() {
		for i := 0; i < batch; i++ {
			engine.Schedule(50, noop)
			engine.Step()
		}
	})
}
