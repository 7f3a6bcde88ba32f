package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSummary is one metric over the repeats of one workload.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

func (s *metricSummary) finish() {
	s.Median = median(s.Runs)
	s.Q1, s.Q3 = quartiles(s.Runs)
}

// spread is the interquartile distance as a share of the median.
func (s metricSummary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		d = -d
	}
	return d
}

// workloadReport is everything the repeats of one workload produced.
type workloadReport struct {
	Name      string                    `json:"name"`
	Why       string                    `json:"why"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Correct   bool                      `json:"correct"`
	Problems  []string                  `json:"problems,omitempty"`
	EndToEnd  map[string]*metricSummary `json:"end_to_end"`
	PerLayer  map[string]*metricSummary `json:"per_layer"`
}

// report is the result file: host fingerprint, settings and every workload.
// Claim stays null: the benchmark sets a baseline and claims no gain.
type report struct {
	Host      hostInfo          `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Repeat    int               `json:"repeat"`
	Smoke     bool              `json:"smoke,omitempty"`
	Workloads []*workloadReport `json:"workloads"`
	Claim     *string           `json:"claim"`
}

func newReport(cfg runConfig, repeat int) *report {
	return &report{Host: readHost(), Seed: cfg.Seed, Seconds: cfg.Seconds, Repeat: repeat, Smoke: cfg.Smoke}
}

func (r *report) workload(name string) *workloadReport {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func (r *report) add(def workloadDef, res *runResult) {
	w := r.workload(def.Name)
	if w == nil {
		w = &workloadReport{
			Name: def.Name, Why: def.Why, Correct: true,
			EndToEnd: make(map[string]*metricSummary),
			PerLayer: make(map[string]*metricSummary),
		}
		r.Workloads = append(r.Workloads, w)
	}
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	w.Correct = w.Correct && res.correct()
	w.Problems = append(w.Problems, res.Problems...)
	into := w.EndToEnd
	if res.Traced {
		into = w.PerLayer
	}
	for _, d := range defsFor(res.Traced) {
		s := into[d.Name]
		if s == nil {
			s = &metricSummary{Unit: d.Unit}
			into[d.Name] = s
		}
		s.Runs = append(s.Runs, res.Metrics[d.Name])
	}
}

func (r *report) finish() {
	for _, w := range r.Workloads {
		for _, s := range w.EndToEnd {
			s.finish()
		}
		for _, s := range w.PerLayer {
			s.finish()
		}
	}
}

// summary is the last line a full run prints: the end-to-end medians of
// every workload, and the claim, which is null.
func (r *report) summary() any {
	type line struct {
		Correct  bool               `json:"correct"`
		EndToEnd map[string]float64 `json:"end_to_end"`
	}
	out := struct {
		Workloads map[string]line `json:"workloads"`
		Claim     *string         `json:"claim"`
	}{Workloads: make(map[string]line)}
	for _, w := range r.Workloads {
		l := line{Correct: w.Correct, EndToEnd: make(map[string]float64)}
		for name, s := range w.EndToEnd {
			l.EndToEnd[name] = s.Median
		}
		out.Workloads[w.Name] = l
	}
	return out
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges candidate b against baseline a for one metric:
//
//	worse       b's median is worse than a's by more than bound·a
//	unresolved  not worse, but either side's interquartile spread is wider
//	            than the bound, so "no regression" cannot be told from noise
//	            — unless every run of b is at least as good as every run of a
//	ok          otherwise
func verdict(d metricDef, a, b metricSummary) string {
	sign := 1.0 // lower is better
	if d.Better == "higher" {
		sign = -1
	}
	if sign*(b.Median-a.Median) > d.Bound*abs(a.Median) {
		return "worse"
	}
	if a.spread() > d.Bound || b.spread() > d.Bound {
		dominates := len(a.Runs) > 0 && len(b.Runs) > 0
		for _, x := range b.Runs {
			for _, y := range a.Runs {
				if sign*(x-y) > 0 {
					dominates = false
				}
			}
		}
		if !dominates {
			return "unresolved"
		}
	}
	return "ok"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareFiles prints one row per (metric, workload) of two result files
// and returns 1 if any row is worse, 2 if the files cannot be compared.
func compareFiles(pathA, pathB string, force bool) int {
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	return compareReports(a, b, force)
}

func compareReports(a, b *report, force bool) int {
	if (a.Host.NProc != b.Host.NProc || a.Host.CPUModel != b.Host.CPUModel) && !force {
		fmt.Fprintf(stderr, "benchmark: results come from different hosts (%d x %q vs %d x %q); -force compares anyway\n",
			a.Host.NProc, a.Host.CPUModel, b.Host.NProc, b.Host.CPUModel)
		return 2
	}
	fmt.Fprintf(stdout, "%-16s %-14s %14s %14s %7s %7s  %s\n", "workload", "metric", "a.median", "b.median", "change", "bound", "verdict")
	code := 0
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if sa == nil || sb == nil {
				continue
			}
			v := verdict(d, *sa, *sb)
			if v == "worse" {
				code = 1
			}
			change := 0.0
			if sa.Median != 0 {
				change = 100 * (sb.Median - sa.Median) / sa.Median
			}
			fmt.Fprintf(stdout, "%-16s %-14s %14.4f %14.4f %+6.1f%% %6.0f%%  %s\n",
				wa.Name, d.Name, sa.Median, sb.Median, change, 100*d.Bound, v)
		}
		if !wa.Correct || !wb.Correct {
			fmt.Fprintf(stdout, "%-16s correctness: a %v, b %v\n", wa.Name, wa.Correct, wb.Correct)
			code = 1
		}
	}
	return code
}
