package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"miras/internal/parallel"
)

// runSequentialThenParallel executes f once with the pool forced
// sequential and once with several workers, returning both results as
// canonical JSON for byte-level comparison.
func runSequentialThenParallel(t *testing.T, f func() (any, error)) (seq, par []byte) {
	t.Helper()
	t.Cleanup(func() { parallel.SetMaxWorkers(0) })
	parallel.SetMaxWorkers(1)
	seqRes, err := f()
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetMaxWorkers(4)
	parRes, err := f()
	if err != nil {
		t.Fatal(err)
	}
	seq, err = json.Marshal(seqRes)
	if err != nil {
		t.Fatal(err)
	}
	par, err = json.Marshal(parRes)
	if err != nil {
		t.Fatal(err)
	}
	return seq, par
}

// TestBudgetSweepParallelDeterminism pins the budget-sweep grid fan-out to
// the sequential results.
func TestBudgetSweepParallelDeterminism(t *testing.T) {
	s := microSetup(t, "msd")
	s.CompareWindows = 5
	seq, par := runSequentialThenParallel(t, func() (any, error) {
		return BudgetSweep(s, []string{"heft", "monad"}, []int{6, 14, 24})
	})
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel budget sweep differs from sequential:\nseq: %s\npar: %s", seq, par)
	}
}
