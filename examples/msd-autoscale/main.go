// msd-autoscale: train the MIRAS model-based RL agent on the MSD ensemble
// (a shrunk configuration that finishes in seconds), then compare the
// learnt policy against a static uniform split when a request burst hits.
//
//	go run ./examples/msd-autoscale
package main

import (
	"fmt"
	"os"

	"miras/internal/baselines"
	"miras/internal/env"
	"miras/internal/experiments"
	"miras/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "msd-autoscale:", err)
		os.Exit(1)
	}
}

func run() error {
	s, err := experiments.QuickSetup("msd")
	if err != nil {
		return err
	}
	s.Iterations = 4
	s.StepsPerIteration = 200
	s.PolicyEpisodes = 25

	fmt.Printf("training MIRAS on %s: %d iterations × %d real interactions...\n",
		s.EnsembleName, s.Iterations, s.StepsPerIteration)
	tr, err := experiments.TrainingTrace(s)
	if err != nil {
		return err
	}
	for _, st := range tr.Stats {
		fmt.Printf("  iteration %d: |D|=%d  eval return %.1f\n",
			st.Iteration, st.DatasetSize, st.EvalReturn)
	}

	// Face both controllers with the same burst on identically seeded
	// environments.
	burst := []int{150, 100, 150}
	fmt.Printf("\ninjecting burst %v and running 20 windows...\n", burst)

	runCtrl := func(ctrl env.Controller) ([]float64, int, error) {
		h, err := experiments.BuildHarness(s, 777)
		if err != nil {
			return nil, 0, err
		}
		if err := h.Generator.InjectBurst(burst); err != nil {
			return nil, 0, err
		}
		ctrl.Reset()
		results, err := env.Run(h.Env, ctrl, 20)
		if err != nil {
			return nil, 0, err
		}
		series := make([]float64, len(results))
		completed := 0
		for i, r := range results {
			series[i] = r.Stats.MeanDelay()
			completed += len(r.Stats.Completions)
		}
		return series, completed, nil
	}

	mirasSeries, mirasDone, err := runCtrl(tr.Agent.Controller())
	if err != nil {
		return err
	}
	staticSeries, staticDone, err := runCtrl(baselines.NewStatic(4, s.Budget))
	if err != nil {
		return err
	}

	fmt.Printf("\n%-8s %-11s %-14s %s\n", "policy", "completed", "mean delay(s)", "tail delay(s)")
	fmt.Printf("%-8s %-11d %-14.1f %.1f\n", "miras", mirasDone,
		metrics.Mean(mirasSeries), metrics.TailMean(mirasSeries, 0.25))
	fmt.Printf("%-8s %-11d %-14.1f %.1f\n", "static", staticDone,
		metrics.Mean(staticSeries), metrics.TailMean(staticSeries, 0.25))
	fmt.Println("\n(larger training scales — `go run ./cmd/miras train -scale medium` — widen the gap)")
	return nil
}
