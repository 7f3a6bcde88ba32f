package experiments

import (
	"fmt"

	"miras/internal/metrics"
	"miras/internal/parallel"
	"miras/internal/trace"
	"miras/internal/workflow"
)

// BudgetSweepResult is the cost–performance curve behind §II-C's
// constrained-resource motivation: mean burst response time as a function
// of the total consumer budget C, per controller. It locates the knee the
// paper's §VI-A4 describes ("a good constraint means we don't have
// redundant resources ... and also resources should be sufficient").
type BudgetSweepResult struct {
	// Budgets lists the swept consumer constraints.
	Budgets []int
	// Table has one series per controller; X is the budget.
	Table trace.Table
	// Completed[name][i] counts completions at Budgets[i].
	Completed map[string][]int
}

// BudgetSweep runs the first paper burst at each budget for each named
// (non-learning) controller.
func BudgetSweep(s Setup, algorithms []string, budgets []int) (*BudgetSweepResult, error) {
	if len(budgets) == 0 {
		return nil, fmt.Errorf("experiments: no budgets to sweep")
	}
	if _, ok := workflow.ByName(s.EnsembleName); !ok {
		return nil, fmt.Errorf("experiments: unknown ensemble %q", s.EnsembleName)
	}
	bursts, err := paperOrFallbackBursts(s)
	if err != nil {
		return nil, err
	}
	res := &BudgetSweepResult{
		Budgets:   append([]int(nil), budgets...),
		Completed: make(map[string][]int),
	}
	x := make([]float64, len(budgets))
	for i, b := range budgets {
		if b <= 0 {
			return nil, fmt.Errorf("experiments: budget %d must be positive", b)
		}
		x[i] = float64(b)
	}
	res.Table = trace.Table{
		Title:  fmt.Sprintf("budget-sweep-%s", s.EnsembleName),
		XLabel: "consumer budget C",
		YLabel: "mean response time (s)",
		X:      x,
	}
	// Every (algorithm, budget) point is an independent run — fresh
	// harness, fresh controller, randomness rooted in the point's own
	// Setup — so the grid fans out across the worker pool (see fanOut) and
	// lands in index-addressed slots, keeping the output identical to a
	// sequential sweep.
	type point struct {
		delay float64
		done  int
	}
	points := make([]point, len(algorithms)*len(budgets))
	err = fanOut(s, len(points), func(idx int) error {
		name := algorithms[idx/len(budgets)]
		b := budgets[idx%len(budgets)]
		sb := s
		sb.Budget = b
		pens, _ := workflow.ByName(sb.EnsembleName) // validated above; fresh per point
		ctrl, err := controllerByName(name, sb, pens, nil)
		if err != nil {
			return err
		}
		h, err := scenario(sb, 300, bursts[0], nil)
		if err != nil {
			return err
		}
		o, err := play(h, ctrl, sb.CompareWindows)
		if err != nil {
			return fmt.Errorf("experiments: sweep %s@%d: %w", name, b, err)
		}
		points[idx] = point{delay: metrics.Mean(o.Delays), done: o.Completed}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ai, name := range algorithms {
		delays := make([]float64, len(budgets))
		completed := make([]int, len(budgets))
		for bi := range budgets {
			p := points[ai*len(budgets)+bi]
			delays[bi] = p.delay
			completed[bi] = p.done
		}
		res.Table.AddSeries(name, delays)
		res.Completed[name] = completed
	}
	return res, nil
}

// fanOut runs fn(0) … fn(n−1), independent runs built from s, on the worker
// pool — or in index order when s carries a Tracer. A tracer is
// single-goroutine: every harness points its clock at its own engine and
// every env step installs its ambient parent, so workers sharing one would
// race and interleave their spans. In order, the trace is the same bytes on
// every run; the results are the same either way.
func fanOut(s Setup, n int, fn func(i int) error) error {
	if s.Tracer == nil {
		return parallel.For(n, fn)
	}
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}
