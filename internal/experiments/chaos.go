package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"miras/internal/cluster"
	"miras/internal/env"
	"miras/internal/faults"
	"miras/internal/trace"
	"miras/internal/workflow"
)

// This file is the declarative chaos-experiment driver built on
// internal/faults: every algorithm is evaluated under identical seeded
// fault regimes (paired arrival traces AND paired fault processes), giving
// a Fig. 6-style comparison of burst response under failures. The older
// kill-timer Chaos ablation (ablations.go) predates fault plans and is kept
// for its callers.

// ChaosRegime is one named fault scenario.
type ChaosRegime struct {
	// Name labels the regime in tables and CSV output.
	Name string
	// Description is a one-line human summary.
	Description string
	// Plan is the fault schedule, armed at virtual time zero.
	Plan faults.Plan
}

// ChaosRegimes returns the standard regimes for s, sized relative to the
// evaluation horizon (CompareWindows × WindowSec): a healthy reference, a
// crash/restart renewal process, a mid-run slowdown episode, a start-up
// delay spike, and a queue-drop episode.
func ChaosRegimes(s Setup) []ChaosRegime {
	horizon := float64(s.CompareWindows) * s.WindowSec
	return []ChaosRegime{
		{
			Name:        "healthy",
			Description: "no faults (reference)",
		},
		{
			Name:        "crash",
			Description: "consumer crash/restart renewal across all services",
			Plan: faults.Plan{Specs: []faults.Spec{{
				Kind:        faults.Crash,
				Service:     faults.AllServices,
				StartSec:    0,
				DurationSec: horizon,
				MTTFSec:     horizon / 10,
				MTTRSec:     s.WindowSec / 2,
			}}},
		},
		{
			Name:        "slowdown",
			Description: "3x service-time slowdown over the middle half of the run",
			Plan: faults.Plan{Specs: []faults.Spec{{
				Kind:        faults.Slowdown,
				Service:     faults.AllServices,
				StartSec:    horizon / 4,
				DurationSec: horizon / 2,
				Factor:      3,
			}}},
		},
		{
			Name:        "startup_spike",
			Description: "20x container start-up delays over the middle half, with crashes forcing restarts",
			Plan: faults.Plan{Specs: []faults.Spec{
				{
					Kind:        faults.StartupSpike,
					Service:     faults.AllServices,
					StartSec:    horizon / 4,
					DurationSec: horizon / 2,
					Factor:      20,
				},
				// Without churn a start-up spike is invisible: crashes make
				// the replication controller exercise the spiked delays.
				{
					Kind:        faults.Crash,
					Service:     faults.AllServices,
					StartSec:    horizon / 4,
					DurationSec: horizon / 2,
					MTTFSec:     horizon / 20,
				},
			}},
		},
		{
			Name:        "queue_drop",
			Description: "10% queue drops on the entry service over the middle half",
			Plan: faults.Plan{Specs: []faults.Spec{{
				Kind:        faults.QueueDrop,
				Service:     0,
				StartSec:    horizon / 4,
				DurationSec: horizon / 2,
				Factor:      0.1,
			}}},
		},
	}
}

// ChaosRegimeResult is one regime's comparison across algorithms.
type ChaosRegimeResult struct {
	Regime ChaosRegime
	// Table holds one per-window mean-response-time series per algorithm,
	// in run order.
	Table trace.Table
	// Completed, OverallMeanDelay summarise each algorithm's run (see
	// CompareResult for the reading order: completions first).
	Completed        map[string]int
	OverallMeanDelay map[string]float64
	// Crashed, Redelivered, and Dropped are the cluster's cumulative
	// failure counters at the end of each algorithm's run.
	Crashed     map[string]uint64
	Redelivered map[string]uint64
	Dropped     map[string]uint64
}

// ChaosCompare evaluates the algorithms under one regime: every algorithm
// gets a fresh harness from the same seed (identical arrival trace and,
// because the injector draws from its own named streams, an identical fault
// trajectory), the paper burst is injected at time zero, and the controller
// runs for s.CompareWindows windows.
func ChaosCompare(s Setup, regime ChaosRegime, algorithms []string, trained *Trained) (*ChaosRegimeResult, error) {
	ens, ok := workflow.ByName(s.EnsembleName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown ensemble %q", s.EnsembleName)
	}
	bursts, err := paperOrFallbackBursts(s)
	if err != nil {
		return nil, err
	}
	res := &ChaosRegimeResult{
		Regime:           regime,
		Completed:        make(map[string]int),
		OverallMeanDelay: make(map[string]float64),
		Crashed:          make(map[string]uint64),
		Redelivered:      make(map[string]uint64),
		Dropped:          make(map[string]uint64),
	}
	res.Table = trace.Table{
		Title:  fmt.Sprintf("chaos-%s-%s", s.EnsembleName, regime.Name),
		XLabel: "window",
		YLabel: "mean response time (s)",
	}
	for _, name := range algorithms {
		ctrl, err := controllerByName(name, s, ens, trained)
		if err != nil {
			return nil, err
		}
		h, err := BuildHarness(s, 900, cluster.WithFaultPlan(regime.Plan))
		if err != nil {
			return nil, err
		}
		if err := h.Env.InjectBurst(bursts[0]); err != nil {
			return nil, err
		}
		ctrl.Reset()
		results, err := env.Run(h.Env, ctrl, s.CompareWindows)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos %s/%s: %w", regime.Name, name, err)
		}
		series := make([]float64, len(results))
		var delaySum float64
		completed := 0
		for i, r := range results {
			series[i] = r.Stats.MeanDelay()
			for _, c := range r.Stats.Completions {
				delaySum += c.Delay()
				completed++
			}
		}
		res.Table.AddSeries(name, series)
		res.Completed[name] = completed
		if completed > 0 {
			res.OverallMeanDelay[name] = delaySum / float64(completed)
		}
		res.Crashed[name] = h.Cluster.Failures()
		res.Redelivered[name] = h.Cluster.Redeliveries()
		res.Dropped[name] = h.Cluster.Dropped()
	}
	return res, nil
}

// ChaosCompareAll evaluates the algorithms under every standard regime.
func ChaosCompareAll(s Setup, algorithms []string, trained *Trained) ([]*ChaosRegimeResult, error) {
	var out []*ChaosRegimeResult
	for _, regime := range ChaosRegimes(s) {
		r, err := ChaosCompare(s, regime, algorithms, trained)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// WriteChaosSummary writes the cross-regime summary as CSV: one row per
// (regime, algorithm) in run order, with completion, delay, and failure
// counters. Output is deterministic, so seeded runs are byte-comparable.
func WriteChaosSummary(w io.Writer, results []*ChaosRegimeResult) error {
	if _, err := fmt.Fprintln(w, "regime,algorithm,completed,mean_delay_sec,crashed,redelivered,dropped"); err != nil {
		return err
	}
	for _, res := range results {
		for _, series := range res.Table.Series {
			name := series.Name
			_, err := fmt.Fprintf(w, "%s,%s,%d,%s,%d,%d,%d\n",
				res.Regime.Name, name,
				res.Completed[name],
				strconv.FormatFloat(res.OverallMeanDelay[name], 'g', -1, 64),
				res.Crashed[name], res.Redelivered[name], res.Dropped[name])
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// SaveChaosSummary writes WriteChaosSummary output to path, creating parent
// directories.
func SaveChaosSummary(path string, results []*ChaosRegimeResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("experiments: mkdir for %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiments: create %s: %w", path, err)
	}
	defer f.Close()
	if err := WriteChaosSummary(f, results); err != nil {
		return fmt.Errorf("experiments: write %s: %w", path, err)
	}
	return f.Close()
}
