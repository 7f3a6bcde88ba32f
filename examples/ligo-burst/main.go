// ligo-burst: replay the paper's LIGO burst scenario 1 (§VI-D) against the
// three non-learning allocators — DRS ("stream"), HEFT, and MONAD — and
// render the response-time traces as an ASCII chart.
//
//	go run ./examples/ligo-burst
package main

import (
	"fmt"
	"io"
	"os"

	"miras/internal/baselines"
	"miras/internal/env"
	"miras/internal/experiments"
	"miras/internal/trace"
	"miras/internal/workflow"
	"miras/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ligo-burst:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	s, err := experiments.QuickSetup("ligo")
	if err != nil {
		return err
	}
	s.CompareWindows = 25

	bursts, err := workload.PaperBursts("ligo")
	if err != nil {
		return err
	}
	burst := bursts[0] // (100, 100, 50, 30) over DataFind/CAT/Full/Injection
	ensemble := workflow.NewLIGO()
	fmt.Fprintf(w, "LIGO burst 1: %v requests over %v\n", burst, ensemble.WorkflowNames())

	table := trace.Table{
		Title:  "ligo-burst1",
		XLabel: "window",
		YLabel: "mean response time (s)",
	}
	controllers := []env.Controller{
		baselines.NewDRS(s.Budget, s.WindowSec),
		baselines.NewHEFT(ensemble, s.Budget),
		baselines.NewMONAD(s.Budget, s.WindowSec),
	}
	for _, ctrl := range controllers {
		h, err := experiments.BuildHarness(s, 555)
		if err != nil {
			return err
		}
		if err := h.Env.InjectBurst(burst); err != nil {
			return err
		}
		ctrl.Reset()
		results, err := env.Run(h.Env, ctrl, s.CompareWindows)
		if err != nil {
			return err
		}
		series := make([]float64, len(results))
		for i, r := range results {
			series[i] = r.Stats.MeanDelay()
		}
		table.AddSeries(ctrl.Name(), series)
	}
	if err := table.Render(w, 12); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nfor the full five-algorithm comparison (incl. trained MIRAS): go run ./cmd/miras compare -ensemble ligo")
	return nil
}
