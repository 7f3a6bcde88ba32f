// Command benchmark is the repository's one performance instrument: four
// workloads that stress different layers of the training and serving stacks,
// a handful of end-to-end metrics every workload reports, and a traced run
// that breaks each workload down layer by layer. See README.md.
//
// One workload, one run (what the benchmark driver calls):
//
//	go run ./benchmark --workload serve-fleet --seed 3 --seconds 20 --trace 0
//
// Everything, untraced then traced, repeated, into a result file:
//
//	go run ./benchmark -repeat 3 -out benchmark/results/baseline.json
//
// Two result files against the regression bounds:
//
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

var (
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const defaultSeconds = 20

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs; the program under test sees only the inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "how long one run measures")
	trace := fs.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both")
	repeat := fs.Int("repeat", 1, "runs per workload and mode; the result file keeps median and quartiles")
	out := fs.String("out", "", "write the full result as JSON to this file")
	spansOut := fs.String("spans", "", "write the traced run's raw spans as JSON to this file (one workload)")
	smoke := fs.Bool("smoke", false, "tiny sizes and half-second runs with every check live")
	compare := fs.Bool("compare", false, "compare two result files given as arguments instead of running")
	force := fs.Bool("force", false, "with -compare: compare results from different hosts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), *force)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *smoke && *seconds == defaultSeconds {
		*seconds = 0.5
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -repeat at least 1")
		return 2
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "benchmark: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	selected := workloads
	if *workload != "all" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []workloadDef{w}
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Smoke: *smoke, SpansOut: *spansOut}

	// The driver's form: one workload, one mode, one run; the result object
	// is the last line of standard output.
	if len(selected) == 1 && len(modes) == 1 && *repeat == 1 && *out == "" {
		cfg.Traced = modes[0]
		res, err := selected[0].run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", selected[0].Name, err)
			return 1
		}
		printRun(res)
		if err := json.NewEncoder(stdout).Encode(driverLine(res)); err != nil {
			return 1
		}
		if !res.correct() {
			return 1
		}
		return 0
	}

	rep := newReport(cfg, *repeat)
	ok := true
	for _, w := range selected {
		for i := 0; i < *repeat; i++ {
			for _, traced := range modes {
				cfg.Traced = traced
				res, err := w.run(cfg)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
					return 1
				}
				printRun(res)
				rep.add(w, res)
				ok = ok && res.correct()
			}
		}
	}
	rep.finish()
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: write %s: %v\n", *out, err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(rep.summary()); err != nil {
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// defsFor returns the metric table a run of the given mode reports.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printRun lists a run's metrics by name with their units, then its verdict.
func printRun(res *runResult) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(stdout, "== %s (%s)\n", res.Workload, mode)
	for _, d := range defsFor(res.Traced) {
		fmt.Fprintf(stdout, "%-36s %16.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	fmt.Fprintf(stdout, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.correct())
	for _, p := range res.Problems {
		fmt.Fprintf(stdout, "PROBLEM: %s\n", p)
	}
}

// driverLine is the one-object result contract of the benchmark driver.
func driverLine(res *runResult) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, d := range defsFor(res.Traced) {
		metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	return map[string]any{
		"correct":   res.correct(),
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	}
}
