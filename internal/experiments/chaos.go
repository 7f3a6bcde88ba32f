package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"miras/internal/faults"
)

// This file is the chaos experiment, built on internal/faults: every
// algorithm is evaluated under identical seeded fault regimes, giving a
// Figs. 7/8-style comparison of burst response under failures. The runs are
// paired twice over: every controller sees the same arrival trace, and,
// because the injector draws from its own named streams rather than from
// the controller's allocation, the same fault trajectory. The "crash" regime
// (a renewal process of exponential gaps and repairs across all services)
// is the consumer-kill study; slowdown, start-up and queue-drop episodes
// complete the set, and selfcheck and the trace see the same plans.

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

// ChaosRegimeResult is one regime's comparison across algorithms. Each
// Outcome carries that run's crashed, redelivered and dropped counters.
type ChaosRegimeResult struct {
	Comparison
	Regime ChaosRegime
}

// ChaosCompare evaluates the algorithms under one regime: every algorithm
// gets a fresh harness from the same seed (identical arrival trace and,
// because the injector draws from its own named streams, an identical fault
// trajectory), the paper burst is injected at time zero, and the controller
// runs for s.CompareWindows windows.
func ChaosCompare(s Setup, regime ChaosRegime, algorithms []string, trained *Trained) (*ChaosRegimeResult, error) {
	bursts, err := paperOrFallbackBursts(s)
	if err != nil {
		return nil, err
	}
	c, err := compareOn(s, algorithms, trained, 900, bursts[0], nil, &regime.Plan)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos regime %s: %w", regime.Name, err)
	}
	c.Table.Title = fmt.Sprintf("chaos-%s-%s", s.EnsembleName, regime.Name)
	return &ChaosRegimeResult{Comparison: *c, Regime: regime}, nil
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
			o := res.Outcomes[series.Name]
			_, err := fmt.Fprintf(w, "%s,%s,%d,%s,%d,%d,%d\n",
				res.Regime.Name, series.Name, o.Completed,
				strconv.FormatFloat(o.MeanDelay, 'g', -1, 64),
				o.Crashed, o.Redelivered, o.Dropped)
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
