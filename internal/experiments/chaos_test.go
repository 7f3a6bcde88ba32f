package experiments

import (
	"bytes"
	"testing"

	"miras/internal/env"
)

func TestChaosRegimesValidate(t *testing.T) {
	s := microSetup(t, "msd")
	regimes := ChaosRegimes(s)
	if len(regimes) < 4 {
		t.Fatalf("regimes=%d, want healthy + at least 3 fault regimes", len(regimes))
	}
	names := map[string]bool{}
	for _, r := range regimes {
		names[r.Name] = true
		if err := r.Plan.Validate(4); err != nil { // msd has 4 services
			t.Fatalf("regime %s: invalid plan: %v", r.Name, err)
		}
	}
	for _, want := range []string{"healthy", "crash", "slowdown", "startup_spike", "queue_drop"} {
		if !names[want] {
			t.Fatalf("regime %q missing (have %v)", want, names)
		}
	}
}

func TestChaosCompareNonLearning(t *testing.T) {
	s := microSetup(t, "msd")
	algs := []string{"stream", "heft", "monad"}
	results, err := ChaosCompareAll(s, algs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ChaosRegimes(s)) {
		t.Fatalf("results=%d, want one per regime", len(results))
	}
	byName := map[string]*ChaosRegimeResult{}
	for _, r := range results {
		byName[r.Regime.Name] = r
		if len(r.Table.Series) != len(algs) {
			t.Fatalf("regime %s: series=%d, want %d", r.Regime.Name, len(r.Table.Series), len(algs))
		}
		for _, alg := range algs {
			// startup_spike at this micro scale (240 s horizon, 100–200 s
			// spiked restarts) can legitimately starve a whole run; its
			// effect is asserted through the crash counter below.
			if r.Regime.Name != "startup_spike" && r.Outcomes[alg].Completed == 0 {
				t.Fatalf("regime %s: %s completed nothing", r.Regime.Name, alg)
			}
		}
	}
	// The fault counters must reflect each regime's mechanism — and stay
	// zero under the healthy reference.
	for _, alg := range algs {
		if h := byName["healthy"].Outcomes[alg]; h.Crashed != 0 || h.Dropped != 0 {
			t.Fatalf("healthy regime injected faults for %s", alg)
		}
		if byName["crash"].Outcomes[alg].Crashed == 0 {
			t.Fatalf("crash regime killed nothing for %s", alg)
		}
		if byName["startup_spike"].Outcomes[alg].Crashed == 0 {
			t.Fatalf("startup_spike regime (with churn crashes) killed nothing for %s", alg)
		}
		if byName["queue_drop"].Outcomes[alg].Dropped == 0 {
			t.Fatalf("queue_drop regime dropped nothing for %s", alg)
		}
	}
}

// TestChaosDeterminism pins the acceptance criterion: identical seed and
// plan produce byte-identical summary CSVs.
func TestChaosDeterminism(t *testing.T) {
	run := func() []byte {
		s := microSetup(t, "msd")
		results, err := ChaosCompareAll(s, []string{"stream", "heft"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteChaosSummary(&buf, results); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("chaos summaries differ between identical runs:\n%s\n---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty summary")
	}
}

// TestHealthyRegimeMatchesPlainCompare pins the other determinism
// criterion: the healthy (empty-plan) regime must reproduce the exact
// trajectory of a plain harness at the same seed offset.
func TestHealthyRegimeMatchesPlainCompare(t *testing.T) {
	s := microSetup(t, "msd")
	res, err := ChaosCompare(s, ChaosRegime{Name: "healthy"}, []string{"stream"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Re-run the same scenario by hand without any fault machinery.
	bursts, err := paperOrFallbackBursts(s)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runPlainScenario(t, s, bursts[0])
	if err != nil {
		t.Fatal(err)
	}
	got := res.Table.Series[0].Values
	if len(got) != len(plain) {
		t.Fatalf("series lengths differ: %d vs %d", len(got), len(plain))
	}
	for i := range got {
		if got[i] != plain[i] {
			t.Fatalf("window %d: healthy-regime %g != plain %g", i, got[i], plain[i])
		}
	}
}

// runPlainScenario mirrors ChaosCompare's run loop with no cluster options.
func runPlainScenario(t *testing.T, s Setup, burst []int) ([]float64, error) {
	t.Helper()
	h, err := BuildHarness(s, 900)
	if err != nil {
		return nil, err
	}
	if err := h.Env.InjectBurst(burst); err != nil {
		return nil, err
	}
	ctrl, err := controllerByName("stream", s, h.Cluster.Ensemble(), nil)
	if err != nil {
		return nil, err
	}
	ctrl.Reset()
	results, err := env.Run(h.Env, ctrl, s.CompareWindows)
	if err != nil {
		return nil, err
	}
	series := make([]float64, len(results))
	for i, r := range results {
		series[i] = r.Stats.MeanDelay()
	}
	return series, nil
}
