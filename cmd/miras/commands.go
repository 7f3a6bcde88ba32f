package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"miras/internal/core"
	"miras/internal/env"
	"miras/internal/experiments"
	"miras/internal/faults"
	"miras/internal/metrics"
	"miras/internal/obs"
	"miras/internal/rl"
	"miras/internal/trace"
	"miras/internal/workflow"
)

// modeleval reproduces Fig. 5: ground truth against one-step and iterative
// model predictions.
func modeleval(*flag.FlagSet) body {
	return func(c *common, w io.Writer) error {
		s, err := c.setup(c.ensemble)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Fig. 5 model accuracy: ensemble=%s scale=%s (%d training samples)\n",
			s.EnsembleName, c.scale, s.CollectSteps)
		res, err := experiments.ModelAccuracy(s)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "trained on %d transitions, tested on a %d-step trace\n", res.TrainPoints, res.TestPoints)
		fmt.Fprintf(w, "final training loss (normalised): %.4f\n", res.FinalTrainLoss)
		fmt.Fprintf(w, "reward-series RMSE: one-step=%.3f iterative=%.3f\n", res.OneStepRMSE, res.IterRMSE)
		if res.IterRMSE >= res.OneStepRMSE {
			fmt.Fprintln(w, "shape check: iterative divergence ≥ one-step divergence, as in the paper ✓")
		} else {
			fmt.Fprintln(w, "shape check: iterative tracked tighter than one-step on this seed (paper expects the opposite)")
		}
		return c.show(w, &res.RewardTable, &res.WIPTable)
	}
}

// train reproduces Fig. 6: the Algorithm 2 loop, printing the per-iteration
// evaluation reward. With -checkpoint-dir the full training state is
// checkpointed every outer iteration and SIGINT/SIGTERM stops cleanly at the
// next iteration boundary (exit 0, no CSVs); -resume continues from the
// newest checkpoint and reproduces the uninterrupted run bit for bit.
func train(fs *flag.FlagSet) body {
	savePolicy := fs.String("save-policy", "", "optional path to save the trained policy snapshot (JSON)")
	profileDir := fs.String("profile-dir", "", "directory for anomaly-triggered pprof captures (empty disables)")
	checkpointDir := fs.String("checkpoint-dir", "", "directory for per-iteration training checkpoints (empty disables)")
	resume := fs.Bool("resume", false, "continue from the newest checkpoint in -checkpoint-dir")
	return func(c *common, w io.Writer) error {
		s, err := c.setup(c.ensemble)
		if err != nil {
			return err
		}
		if *profileDir != "" {
			prof, err := obs.NewProfileCapturer(*profileDir)
			if err != nil {
				return err
			}
			// Without -trace-out this tracer has no sink: it only carries
			// the capturer, so a rollback is still profiled.
			s.Tracer = c.newTracer(prof)
		}
		fmt.Fprintf(w, "Fig. 6 MIRAS training: ensemble=%s scale=%s (%d iterations × %d real steps)\n",
			s.EnsembleName, c.scale, s.Iterations, s.StepsPerIteration)

		ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancelSignals()
		res, err := experiments.TrainingTraceOpts(s, experiments.TrainOptions{
			CheckpointDir: *checkpointDir,
			Resume:        *resume,
			Stop:          func() bool { return ctx.Err() != nil },
		})
		if errors.Is(err, core.ErrStopped) {
			fmt.Fprintf(w, "training interrupted; state checkpointed in %s — rerun with -resume to continue\n", *checkpointDir)
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "iter  |D|      model-loss  episodes  synth-return  eval-return  sigma")
		for _, st := range res.Stats {
			fmt.Fprintf(w, "%4d  %-7d %-11.4f %-9d %-13.1f %-12.1f %.4f\n",
				st.Iteration, st.DatasetSize, st.ModelLoss, st.PolicyEpisodes,
				st.SyntheticReturn, st.EvalReturn, st.NoiseSigma)
		}
		first, last := res.Stats[0].EvalReturn, res.Stats[len(res.Stats)-1].EvalReturn
		if last > first {
			fmt.Fprintf(w, "shape check: eval return improved %.1f → %.1f over training ✓\n", first, last)
		} else {
			fmt.Fprintf(w, "shape check: eval return %.1f → %.1f (no improvement on this seed/scale)\n", first, last)
		}
		if err := c.show(w, &res.Table); err != nil {
			return err
		}
		if *savePolicy != "" {
			if err := res.Agent.Snapshot().Save(*savePolicy); err != nil {
				return err
			}
			fmt.Fprintf(w, "saved trained policy snapshot to %s\n", *savePolicy)
		}
		return nil
	}
}

// compare reproduces Figs. 7 and 8: response time under bursts.
func compare(*flag.FlagSet) body {
	return func(c *common, w io.Writer) error {
		s, err := c.setup(c.ensemble)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figs. 7/8 comparison: ensemble=%s scale=%s algorithms=%v\n",
			s.EnsembleName, c.scale, experiments.AlgorithmNames)
		fmt.Fprintln(w, "training MIRAS and the model-free DDPG baseline (equal interaction budgets)...")
		trained, err := experiments.TrainControllers(s)
		if err != nil {
			return err
		}
		results, err := experiments.CompareAll(s, trained)
		if err != nil {
			return err
		}
		for i, res := range results {
			fmt.Fprintf(w, "\n--- burst %d: %v ---\n", i+1, res.Burst)
			if err := c.show(w, &res.Table); err != nil {
				return err
			}
			names := make([]string, 0, len(res.Table.Series))
			for _, series := range res.Table.Series {
				names = append(names, series.Name)
			}
			sort.SliceStable(names, func(a, b int) bool {
				oa, ob := res.Outcomes[names[a]], res.Outcomes[names[b]]
				if oa.Completed != ob.Completed {
					return oa.Completed > ob.Completed
				}
				return oa.MeanDelay < ob.MeanDelay
			})
			fmt.Fprintln(w, "algorithm   completed  mean-delay(s)  tail-mean(s)  AUC")
			for _, name := range names {
				o := res.Outcomes[name]
				fmt.Fprintf(w, "%-11s %-10d %-14.1f %-13.1f %.1f\n",
					name, o.Completed, o.MeanDelay, o.TailMean(), o.AUC())
			}
			fmt.Fprintf(w, "best (≥90%% completions, lowest mean delay): %s\n", res.Best())
		}
		return nil
	}
}

// figures is the one-shot driver behind EXPERIMENTS.md: Figs. 5–8, the
// extensions and the ablations for one or both ensembles, plus summary.md.
func figures(fs *flag.FlagSet) body {
	skipAblations := fs.Bool("skip-ablations", false, "run only the paper figures and extensions")
	return func(c *common, w io.Writer) error {
		ensembles := []string{c.ensemble}
		if c.ensemble == "both" {
			ensembles = []string{"msd", "ligo"}
		}
		var report strings.Builder
		fmt.Fprintf(&report, "# MIRAS reproduction run (%s scale, %s)\n\n", c.scale, time.Now().Format(time.RFC3339))
		for _, ens := range ensembles {
			s, err := c.setup(ens)
			if err != nil {
				return err
			}
			if err := figuresFor(c, w, s, *skipAblations, &report); err != nil {
				return fmt.Errorf("%s: %w", ens, err)
			}
		}
		reportPath := filepath.Join(c.out, "summary.md")
		if err := os.WriteFile(reportPath, []byte(report.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", reportPath)
		return nil
	}
}

func figuresFor(c *common, w io.Writer, s experiments.Setup, skipAblations bool, report *strings.Builder) error {
	started := time.Now()
	fmt.Fprintf(w, "\n=== ensemble %s ===\n", s.EnsembleName)
	fmt.Fprintf(report, "## Ensemble %s\n\n", s.EnsembleName)

	fmt.Fprintln(w, "[1/5] Fig. 5 model accuracy...")
	fig5, err := experiments.ModelAccuracy(s)
	if err != nil {
		return err
	}
	if err := c.save(w, &fig5.RewardTable, &fig5.WIPTable); err != nil {
		return err
	}
	fmt.Fprintf(report, "- **Fig. 5**: trained on %d samples; reward-series RMSE one-step %.3f, iterative %.3f (iterative ≥ one-step: %v)\n",
		fig5.TrainPoints, fig5.OneStepRMSE, fig5.IterRMSE, fig5.IterRMSE >= fig5.OneStepRMSE)
	// Fig. 6 and the trained controllers share one run.
	fmt.Fprintln(w, "[2/5] Fig. 6 MIRAS training + model-free baseline...")
	trained, err := experiments.TrainControllers(s)
	if err != nil {
		return err
	}
	fig6 := trained.TrainingStats
	if err := c.save(w, &fig6.Table); err != nil {
		return err
	}
	first, last := fig6.Stats[0].EvalReturn, fig6.Stats[len(fig6.Stats)-1].EvalReturn
	fmt.Fprintf(report, "- **Fig. 6**: eval return %.1f → %.1f over %d iterations (improved: %v)\n",
		first, last, len(fig6.Stats), last > first)
	fmt.Fprintln(w, "[3/5] Figs. 7/8 burst comparisons...")
	comps, err := experiments.CompareAll(s, trained)
	if err != nil {
		return err
	}
	for i, cmp := range comps {
		if err := c.save(w, &cmp.Table); err != nil {
			return err
		}
		// The per-workflow breakdown of the MIRAS run documents the §VI-D
		// deferral behaviour (saved for the first burst panel only).
		if byWF := cmp.Outcomes["miras"].ByWorkflow; byWF != nil && i == 0 {
			byWF.Title = cmp.Table.Title + "-byworkflow"
			if err := c.save(w, byWF); err != nil {
				return err
			}
		}
		best := cmp.Best()
		b, m := cmp.Outcomes[best], cmp.Outcomes["miras"]
		fmt.Fprintf(report,
			"- **%s** burst %v: best = %s (%.1fs mean delay, %d completed); miras %.1fs mean delay, %d completed, tail %.1fs\n",
			cmp.Table.Title, cmp.Burst, best, b.MeanDelay, b.Completed,
			m.MeanDelay, m.Completed, m.TailMean())
	}
	// Extension experiments are cheap: no extra training.
	fmt.Fprintln(w, "[4/5] extension experiments...")
	dyn, err := experiments.DynamicLoad(s, []string{"miras", "stream", "heft", "monad", "hpa"}, trained, 0.5)
	if err != nil {
		return err
	}
	if err := c.save(w, &dyn.Table); err != nil {
		return err
	}
	d := dyn.Outcomes
	fmt.Fprintf(report, "- **Dynamic load (±50%% sine)**: completions miras %d, stream %d, heft %d, monad %d, hpa %d; mean delay miras %.1fs vs heft %.1fs\n",
		d["miras"].Completed, d["stream"].Completed, d["heft"].Completed,
		d["monad"].Completed, d["hpa"].Completed, d["miras"].MeanDelay, d["heft"].MeanDelay)
	regimes, err := chaosRegimes(c, c.save, w, s, experiments.AlgorithmNames, trained)
	if err != nil {
		return err
	}
	for _, res := range regimes {
		if res.Regime.Name != "crash" {
			continue
		}
		var runs []string
		for _, series := range res.Table.Series {
			o := res.Outcomes[series.Name]
			runs = append(runs, fmt.Sprintf("%s %d (%d, %d)", series.Name, o.Completed, o.Crashed, o.Redelivered))
		}
		fmt.Fprintf(report, "- **Chaos (%s regime: %s)**: completions (kills, redeliveries) %s\n",
			res.Regime.Name, res.Regime.Description, strings.Join(runs, ", "))
	}
	if skipAblations {
		fmt.Fprintln(w, "[5/5] ablations skipped")
	} else if err := ablations(c, w, s, trained, report); err != nil {
		return err
	}
	fmt.Fprintf(report, "\n(completed in %s)\n\n", time.Since(started).Round(time.Millisecond))
	return nil
}

func ablations(c *common, w io.Writer, s experiments.Setup, trained *experiments.Trained, report *strings.Builder) error {
	fmt.Fprintln(w, "[5/5] ablations...")
	// The noise and refinement ablations each train two full agents; run
	// them at half training scale to bound cost.
	ab := s
	ab.Iterations = max(s.Iterations/2, 1)
	ab.PolicyEpisodes = s.PolicyEpisodes / 2
	win, err := experiments.WindowLengthAblation(s, []float64{5, 15, 30})
	if err != nil {
		return err
	}
	if err := c.save(w, &win.Table); err != nil {
		return err
	}
	fmt.Fprintf(report, "- **Window ablation** (monad | stream): 5s %.1f|%.1f, 15s %.1f|%.1f, 30s %.1f|%.1f\n",
		win.MeanDelay[0], win.MeanDelayDRS[0], win.MeanDelay[1], win.MeanDelayDRS[1],
		win.MeanDelay[2], win.MeanDelayDRS[2])
	noise, err := experiments.NoiseAblation(ab)
	if err != nil {
		return err
	}
	if err := c.save(w, &noise.Table); err != nil {
		return err
	}
	fmt.Fprintf(report, "- **Noise ablation** (best|final eval return): param-noise %.1f|%.1f vs action-noise %.1f|%.1f; %.0f%% of raw action-noise samples violated the constraint before projection\n",
		noise.BestParam, noise.FinalParam, noise.BestAction, noise.FinalAction, 100*noise.RawViolationRate)
	refine, err := experiments.RefinementAblation(ab)
	if err != nil {
		return err
	}
	if err := c.save(w, &refine.Table); err != nil {
		return err
	}
	fmt.Fprintf(report, "- **Refinement ablation** (best|final eval return): refined %.1f|%.1f vs raw %.1f|%.1f\n",
		refine.BestRefined, refine.FinalRefined, refine.BestRaw, refine.FinalRaw)
	se, err := experiments.SampleEfficiency(s, trained, 3)
	if err != nil {
		return err
	}
	fmt.Fprintf(report, "- **Sample efficiency**: at %d real interactions, miras return %.1f vs model-free %.1f\n",
		se.Interactions, se.MIRASReturn, se.ModelFreeReturn)
	return nil
}

// budget sweeps the consumer budget C for the controllers that need no
// training: the cost–performance curve behind §II-C.
func budget(fs *flag.FlagSet) body {
	budgets := fs.String("budgets", "", "comma-separated consumer budgets (default ½C,C,2C)")
	return func(c *common, w io.Writer) error {
		s, err := c.setup(c.ensemble)
		if err != nil {
			return err
		}
		bs, err := parseList(*budgets, strconv.Atoi)
		if err != nil {
			return err
		}
		if len(bs) == 0 {
			bs = []int{s.Budget / 2, s.Budget, s.Budget * 2}
		}
		algs := []string{"stream", "heft", "monad", "hpa", "static"}
		res, err := experiments.BudgetSweep(s, algs, bs)
		if err != nil {
			return err
		}
		for _, name := range algs {
			fmt.Fprintf(w, "%-8s completions by budget %v: %v\n", name, bs, res.Completed[name])
		}
		return c.show(w, &res.Table)
	}
}

// chaos repeats the Figs. 7/8 comparison under each seeded fault regime
// (internal/faults); same seed + same regimes ⇒ byte-identical CSVs.
func chaos(fs *flag.FlagSet) body {
	algorithms := fs.String("algorithms", strings.Join(experiments.AlgorithmNames, ","),
		"comma-separated algorithms; omitting miras and rl skips training")
	windows := fs.Int("windows", 0, "override evaluation windows per regime (0 keeps the preset)")
	return func(c *common, w io.Writer) error {
		s, err := c.setup(c.ensemble)
		if err != nil {
			return err
		}
		if *windows > 0 {
			s.CompareWindows = *windows
		}
		algs, _ := parseList(*algorithms, func(v string) (string, error) { return v, nil }) // cannot fail
		var trained *experiments.Trained
		if slices.Contains(algs, "miras") || slices.Contains(algs, "rl") {
			fmt.Fprintln(w, "training MIRAS and the model-free DDPG baseline (equal interaction budgets)...")
			if trained, err = experiments.TrainControllers(s); err != nil {
				return err
			}
		}
		_, err = chaosRegimes(c, c.show, w, s, algs, trained)
		return err
	}
}

// chaosRegimes runs algs under every fault regime, prints each regime's
// counters, hands its table to emit (show or save), and writes
// chaos-<ensemble>-summary.csv.
func chaosRegimes(c *common, emit func(io.Writer, ...*trace.Table) error, w io.Writer,
	s experiments.Setup, algs []string, trained *experiments.Trained) ([]*experiments.ChaosRegimeResult, error) {
	fmt.Fprintf(w, "chaos comparison: ensemble=%s scale=%s algorithms=%v regimes=%d\n",
		s.EnsembleName, c.scale, algs, len(experiments.ChaosRegimes(s)))
	results, err := experiments.ChaosCompareAll(s, algs, trained)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		fmt.Fprintf(w, "\n--- regime %s: %s ---\n", res.Regime.Name, res.Regime.Description)
		if err := emit(w, &res.Table); err != nil {
			return nil, err
		}
		fmt.Fprintln(w, "algorithm   completed  mean-delay(s)  crashed  redelivered  dropped")
		for _, series := range res.Table.Series {
			o := res.Outcomes[series.Name]
			fmt.Fprintf(w, "%-11s %-10d %-14.1f %-8d %-12d %d\n",
				series.Name, o.Completed, o.MeanDelay, o.Crashed, o.Redelivered, o.Dropped)
		}
	}
	summaryPath := filepath.Join(c.out, fmt.Sprintf("chaos-%s-summary.csv", s.EnsembleName))
	if err := experiments.SaveChaosSummary(summaryPath, results); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nwrote %s\n", summaryPath)
	return results, nil
}

// replay runs a policy snapshot saved by train against a burst on a fresh
// environment — the deployment path: train once, control anywhere.
func replay(fs *flag.FlagSet) body {
	policyPath := fs.String("policy", "", "path to a policy snapshot saved by miras train -save-policy (required)")
	burstSpec := fs.String("burst", "", "comma-separated burst counts per workflow type (optional)")
	windows := fs.Int("windows", 30, "number of control windows to run")
	return func(c *common, w io.Writer) error {
		if *policyPath == "" {
			return fmt.Errorf("-policy is required")
		}
		s, err := c.setup(c.ensemble)
		if err != nil {
			return err
		}
		snap, err := rl.LoadPolicySnapshot(*policyPath)
		if err != nil {
			return err
		}
		ctrl, err := core.NewSnapshotController(snap, s.Budget)
		if err != nil {
			return err
		}
		h, err := experiments.BuildHarness(s, 1000)
		if err != nil {
			return err
		}
		if snap.Actor.InDim() != h.Env.StateDim() {
			return fmt.Errorf("policy was trained for %d microservices, ensemble %q has %d",
				snap.Actor.InDim(), c.ensemble, h.Env.StateDim())
		}
		if *burstSpec != "" {
			burst, err := parseBurst(*burstSpec, h.Cluster.Ensemble().NumWorkflows())
			if err != nil {
				return err
			}
			if err := h.Env.InjectBurst(burst); err != nil {
				return err
			}
			fmt.Fprintf(w, "injected burst %v\n", burst)
		}
		results, err := env.Run(h.Env, ctrl, *windows)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "window  allocation        ΣWIP    completed  mean-delay(s)")
		var series []float64
		completed := 0
		for i, r := range results {
			var wip float64
			for _, v := range r.State {
				wip += v
			}
			series = append(series, r.Stats.MeanDelay())
			completed += len(r.Stats.Completions)
			fmt.Fprintf(w, "%6d  %-17s %-7.0f %-10d %.1f\n",
				i, fmt.Sprint(r.Stats.Consumers), wip, len(r.Stats.Completions), r.Stats.MeanDelay())
		}
		fmt.Fprintf(w, "\ntotals: %d completed, mean window delay %.1fs, tail %.1fs\n",
			completed, metrics.Mean(series), metrics.TailMean(series, 0.25))
		return nil
	}
}

// parseBurst parses "300,200,300" into non-negative per-workflow counts.
func parseBurst(spec string, numWorkflows int) ([]int, error) {
	burst, err := parseList(spec, strconv.Atoi)
	if err != nil {
		return nil, err
	}
	if len(burst) != numWorkflows {
		return nil, fmt.Errorf("burst has %d counts, ensemble has %d workflow types", len(burst), numWorkflows)
	}
	for _, v := range burst {
		if v < 0 {
			return nil, fmt.Errorf("negative burst count %d", v)
		}
	}
	return burst, nil
}

// selfcheck verifies that two identically seeded short runs produce
// identical digests, fault-free and then under every chaos regime.
func selfcheck(*flag.FlagSet) body {
	return func(c *common, w io.Writer) error {
		s, err := c.setup(c.ensemble)
		if err != nil {
			return err
		}
		check := func(label string, plan *faults.Plan) error {
			res, err := experiments.SelfCheck(s, 0, plan)
			if err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
			fmt.Fprintf(w, "determinism self-check passed: %-20s %d windows, digest %#016x\n",
				label, res.Windows, res.Digest)
			return nil
		}
		if err := check("fault-free", nil); err != nil {
			return err
		}
		for _, regime := range experiments.ChaosRegimes(s) {
			if err := check("regime="+regime.Name, &regime.Plan); err != nil {
				return err
			}
		}
		return nil
	}
}

// dot exports an ensemble's workflow DAGs as Graphviz DOT.
func dot(fs *flag.FlagSet) body {
	wfName := fs.String("workflow", "", "export only the named workflow type")
	return func(c *common, w io.Writer) error {
		e, ok := workflow.ByName(c.ensemble)
		if !ok {
			return fmt.Errorf("unknown ensemble %q", c.ensemble)
		}
		if *wfName == "" {
			return e.WriteDOT(w)
		}
		wf, err := e.WorkflowByName(*wfName)
		if err != nil {
			return err
		}
		return wf.WriteDOT(w, e)
	}
}
