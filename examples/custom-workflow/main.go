// custom-workflow: define your own workflow ensemble — a genomics-style
// pipeline with a fork-join — validate it, and run it under the DRS and
// HEFT allocators. Demonstrates the API surface a new deployment needs:
// workflow.NewType / Ensemble and env.New.
//
//	go run ./examples/custom-workflow
package main

import (
	"fmt"
	"io"
	"os"

	"miras/internal/baselines"
	"miras/internal/cluster"
	"miras/internal/env"
	"miras/internal/trace"
	"miras/internal/workflow"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "custom-workflow:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// 1. Declare task types with their service-time characteristics.
	const (
		align   workflow.TaskType = iota // read alignment
		sortT                            // coordinate sorting
		callVar                          // variant calling
		annot                            // annotation
		report                           // report generation
	)
	tasks := []workflow.TaskDef{
		{Name: "Align", MeanServiceSec: 5, ServiceCV: 0.5},
		{Name: "Sort", MeanServiceSec: 2, ServiceCV: 0.3},
		{Name: "CallVariants", MeanServiceSec: 6, ServiceCV: 0.6},
		{Name: "Annotate", MeanServiceSec: 3, ServiceCV: 0.4},
		{Name: "Report", MeanServiceSec: 1.5, ServiceCV: 0.2},
	}

	// 2. Declare workflow DAGs over those tasks. NewType validates shape
	// (acyclicity, edge ranges) and precomputes roots/joins.
	full, err := workflow.NewType("FullPipeline",
		[]workflow.Node{
			{Task: align},   // 0
			{Task: sortT},   // 1
			{Task: callVar}, // 2
			{Task: annot},   // 3
			{Task: report},  // 4
		},
		// Align → Sort → (CallVariants ∥ Annotate) → Report: a fork-join.
		[][]int{{1}, {2, 3}, {4}, {4}, {}})
	if err != nil {
		return err
	}
	quick, err := workflow.NewType("QuickLook",
		[]workflow.Node{{Task: align}, {Task: report}},
		[][]int{{1}, {}})
	if err != nil {
		return err
	}
	ensemble := &workflow.Ensemble{
		Name:      "genomics",
		Tasks:     tasks,
		Workflows: []*workflow.Type{full, quick},
	}
	if err := ensemble.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "ensemble %q validated: %d workflows, %d task types\n",
		ensemble.Name, ensemble.NumWorkflows(), ensemble.NumTasks())
	ranks := baselines.UpwardRanks(ensemble)
	for j, r := range ranks {
		fmt.Fprintf(w, "  %-13s upward rank %.1f\n", tasks[j].Name, r)
	}

	// 3. Wire the emulated cluster, traffic, and control environment.
	const budget = 12
	runAllocator := func(mk func() env.Controller) ([]float64, error) {
		e, err := env.New(env.Config{
			Cluster: cluster.Config{Ensemble: ensemble},
			Seed:    7,
			Rates:   []float64{0.08, 0.15},
			Budget:  budget,
		})
		if err != nil {
			return nil, err
		}
		if err := e.InjectBurst([]int{60, 40}); err != nil {
			return nil, err
		}
		results, err := env.Run(e, mk(), 15)
		if err != nil {
			return nil, err
		}
		series := make([]float64, len(results))
		for i, r := range results {
			series[i] = r.Stats.MeanDelay()
		}
		return series, nil
	}

	table := trace.Table{Title: "genomics-burst", XLabel: "window", YLabel: "mean response time (s)"}
	drs, err := runAllocator(func() env.Controller { return baselines.NewDRS(budget, env.DefaultWindowSec) })
	if err != nil {
		return err
	}
	table.AddSeries("stream", drs)
	heft, err := runAllocator(func() env.Controller { return baselines.NewHEFT(ensemble, budget) })
	if err != nil {
		return err
	}
	table.AddSeries("heft", heft)
	return table.Render(w, 10)
}
