// Quickstart: build the emulated microservice workflow system, feed it
// Poisson traffic, and drive resource allocation for a few control windows.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"miras/internal/baselines"
	"miras/internal/cluster"
	"miras/internal/env"
	"miras/internal/workflow"
	"miras/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// 1. The MSD ensemble from the paper: 3 workflow types over 4 task
	// types (Extract, Align, Segment, Render).
	ensemble := workflow.NewMSD()
	fmt.Fprintf(w, "ensemble %q: %d workflows over %d microservices\n",
		ensemble.Name, ensemble.NumWorkflows(), ensemble.NumTasks())

	// 2. The emulated system, driven by one seed: a deterministic
	// discrete-event cluster with container start-up delays, background
	// Poisson arrivals, and the windowed control environment over them —
	// 30-second windows, a budget of 14 consumers (the paper's MSD
	// constraint).
	e, err := env.New(env.Config{
		Cluster: cluster.Config{Ensemble: ensemble},
		Seed:    42,
		Rates:   []float64{0.1, 0.1, 0.1},
		Budget:  14,
	})
	if err != nil {
		return err
	}

	// 3. One burst at t=60s on top of the background load.
	if err := e.Generator().ScheduleBursts([]workload.Burst{{At: 60, Counts: []int{50, 30, 50}}}); err != nil {
		return err
	}

	// 4. Drive it with the MONAD baseline controller for 12 windows.
	ctrl := baselines.NewMONAD(e.Budget(), e.WindowSec())
	fmt.Fprintln(w, "\nwindow  allocation      ΣWIP   completed  mean-delay(s)")
	results, err := env.Run(e, ctrl, 12)
	if err != nil {
		return err
	}
	for i, r := range results {
		var wip float64
		for _, w := range r.State {
			wip += w
		}
		fmt.Fprintf(w, "%6d  %-15s %-6.0f %-10d %.1f\n",
			i, fmt.Sprint(r.Stats.Consumers), wip, len(r.Stats.Completions), r.Stats.MeanDelay())
	}
	fmt.Fprintln(w, "\nNext: examples/msd-autoscale trains the MIRAS agent on this system.")
	return nil
}
