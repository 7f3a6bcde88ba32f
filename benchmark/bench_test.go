package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"miras/internal/core"
	"miras/internal/experiments"
	"miras/internal/httpapi"
)

func TestTraceGenerationIsSeeded(t *testing.T) {
	spec := traceSpec{Sessions: 8, ZipfS: 1.2, StepShare: 0.7, ResetEvery: 5}
	a, b, c := genOps(7, 500, spec), genOps(7, 500, spec), genOps(8, 500, spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different traces")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same trace")
	}
	sa, sb, sc := genSchedule(7, 500, 3000), genSchedule(7, 500, 3000), genSchedule(8, 500, 3000)
	if !reflect.DeepEqual(sa, sb) || reflect.DeepEqual(sa, sc) {
		t.Fatal("schedule does not follow its seed")
	}
	for i := 1; i < len(sa); i++ {
		if sa[i] < sa[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	// About 3000 per second: 500 arrivals take roughly a sixth of a second.
	if last := time.Duration(sa[len(sa)-1]); last < 100*time.Millisecond || last > 250*time.Millisecond {
		t.Fatalf("500 arrivals at 3000 rps end at %v", last)
	}
}

func TestTraceResetCadence(t *testing.T) {
	ops := genOps(3, 2000, traceSpec{Sessions: 4, StepShare: 1, ResetEvery: 10})
	steps := make([]int, 4)
	for i, o := range ops {
		if o.Kind != opStep {
			continue
		}
		steps[o.Session]++
		if steps[o.Session]%10 == 0 {
			if i < 2 || ops[i-2].Kind != opReset || ops[i-1].Kind != opBurst ||
				ops[i-1].Session != o.Session || ops[i-2].Session != o.Session {
				t.Fatalf("step %d of session %d is not preceded by its reset and burst", steps[o.Session], o.Session)
			}
		}
	}
	if hot := hottestShare(ops, 4); hot < 20 || hot > 35 {
		t.Fatalf("uniform choice over 4 sessions: hottest share %.1f%%", hot)
	}
}

// fakeClock only moves when waited on or told to.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { return c.t }
func (c *fakeClock) waitUntil(t int64) {
	if c.t < t {
		c.t = t
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	const ms = int64(time.Millisecond)
	ops := make([]op, 4)
	due := []int64{0, 1 * ms, 2 * ms, 20 * ms}
	// Every request takes 5 ms: the second and third are sent late.
	samples := openLoop(clk, ops, due, 1, func(_, _ int) outcome {
		clk.t += 5 * ms
		return outcome{ok: true}
	})
	st := summarize(samples)
	wantLatency := []float64{5000, 5000, 9000, 13000} // ascending
	if !reflect.DeepEqual(st.latencyUs, wantLatency) {
		t.Fatalf("latency from due time = %v, want %v", st.latencyUs, wantLatency)
	}
	wantLate := []float64{0, 4000, 8000, 0}
	if !reflect.DeepEqual(st.lateUs, wantLate) {
		t.Fatalf("send lateness = %v, want %v", st.lateUs, wantLate)
	}
	if st.inSLO != 3 {
		t.Fatalf("%d requests within the 10 ms limit, want 3", st.inSLO)
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	clk := &fakeClock{}
	samples := closedLoop(clk, make([]op, 100), 1, 10*time.Millisecond, func(_, _ int) outcome {
		clk.t += int64(3 * time.Millisecond)
		return outcome{ok: true}
	})
	if len(samples) != 4 { // sent at 0, 3, 6, 9 ms
		t.Fatalf("%d requests sent in 10 ms at 3 ms each, want 4", len(samples))
	}
}

func TestIntervalCPU(t *testing.T) {
	var samples []sample
	for i := 0; i < 30; i++ { // one completion per 10 ms
		samples = append(samples, sample{done: int64(i) * int64(10*time.Millisecond)})
	}
	ticks := []cpuTick{
		{at: 0, cpu: 0},
		{at: int64(100 * time.Millisecond), cpu: 50 * time.Millisecond},
		{at: int64(200 * time.Millisecond), cpu: 150 * time.Millisecond},
	}
	if cpuUs := intervalCPUUs(samples, ticks); !reflect.DeepEqual(cpuUs, []float64{5000, 10000}) {
		t.Fatalf("cpu per request %v", cpuUs)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99},
		{1999, 99}, {2000, 99.5}, {10_000, 99.9}, {99_999, 99.9}, {100_000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for each row.
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.data)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Parent: noSpan, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the parent
		{Name: "leaf", Parent: 1, Start: 15, End: 20},
	}
	// Children cover [10,60] and [90,100] of the parent: 60 of its 100.
	want := []int64{40, 25, 30, 30, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	agg := aggregate(spans)
	if a := agg["parent"]; a.count != 1 || a.meanUs() != 0.1 || a.meanSelfUs() != 0.04 {
		t.Fatalf("aggregate(parent) = %+v", a)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(2)
	if id := tr.start("x", noSpan); id != noSpan {
		t.Fatal("a tracer that is off handed out a span")
	}
	tr.on.Store(true)
	a := tr.start("a", noSpan)
	tr.end(tr.start("b", a))
	tr.end(a)
	if id := tr.start("c", noSpan); id != noSpan || tr.dropped.Load() != 1 {
		t.Fatal("a full tracer must drop and count, not grow")
	}
	if got := tr.recorded(); len(got) != 2 || got[1].Parent != a || got[0].End < got[1].End {
		t.Fatalf("recorded %+v", got)
	}
}

func TestBacklogDetector(t *testing.T) {
	flat := make([]float64, 1000)
	growing := make([]float64, 1000)
	spiky := make([]float64, 1000)
	for i := range flat {
		flat[i] = 50 + float64(i%7)
		growing[i] = float64(i*i) / 20 // 0.5 ms behind early on, 40 ms at the end
		spiky[i] = 50
	}
	spiky[400] = 200_000 // one stall in the middle is not a growing backlog
	if backlogGrowing(flat) || backlogGrowing(spiky) {
		t.Fatal("detector fired on a generator that kept up")
	}
	if !backlogGrowing(growing) {
		t.Fatal("detector missed a generator falling ever further behind")
	}
}

func TestScanStepMatchesJSON(t *testing.T) {
	resp := httpapi.StepResponse{
		State: []float64{3, 0, 12.5, 1}, Reward: -15.5, Window: 4711,
		Consumers: []int{4, 3, 4, 3}, ArrivalRate: []float64{0.1, 0.2, 0.3, 0.4},
		CompletionRate: []float64{0, 0, 0, 0}, Utilization: []float64{1, 0.5, 0.25, 0},
		Completed: 7, MeanDelaySec: 12.25, Allocation: []int{5, 0, 6, 3}, Controller: "policy",
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := scanStep(body)
	if !ok || f.window != 4711 || f.allocSum != 14 || !f.policy {
		t.Fatalf("scanStep(%s) = %+v, %v", body, f, ok)
	}
	resp.Controller = "hpa"
	body, _ = json.Marshal(resp)
	if f, ok := scanStep(body); !ok || f.policy {
		t.Fatalf("HPA fallback read as policy: %+v", f)
	}
	for _, bad := range []string{`{}`, `{"window":"x"}`, `{"window":3}`, `{"window":3,"allocation":[1,x]}`} {
		if _, ok := scanStep([]byte(bad)); ok {
			t.Errorf("scanStep accepted %s", bad)
		}
	}
}

func TestServeCheckerCatchesASkippedWindow(t *testing.T) {
	step := func(sess int32, window int32) sample {
		return sample{op: op{Session: sess, Kind: opStep}, outcome: outcome{ok: true, window: window}}
	}
	good := newServeChecker(2)
	good.add([]sample{step(0, 2), step(1, 1), step(0, 1), step(0, 3), {op: op{Kind: opInfo}, outcome: outcome{ok: true}}})
	res := newResult("serve-fleet", false)
	good.verify(res, []int{3, 1})
	if !res.correct() {
		t.Fatalf("clean run flagged: %v", res.Problems)
	}

	// A corrupted response: window 3 arrives where 2 was due.
	skipped := newServeChecker(1)
	skipped.add([]sample{step(0, 1), step(0, 3)})
	res = newResult("serve-fleet", false)
	skipped.verify(res, []int{2})
	if res.correct() || !strings.Contains(res.Problems[0], "skipped or repeated") {
		t.Fatalf("skipped window not caught: %v", res.Problems)
	}

	// A step the session applied but the client never saw acknowledged.
	lost := newServeChecker(1)
	lost.add([]sample{step(0, 1)})
	res = newResult("serve-fleet", false)
	lost.verify(res, []int{2})
	if res.correct() {
		t.Fatal("unacknowledged step not caught")
	}
}

func TestVerdicts(t *testing.T) {
	sum := func(runs ...float64) metricSummary {
		s := metricSummary{Runs: runs}
		s.finish()
		return s
	}
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b metricSummary
		want string
	}{
		{"same", lower, sum(100, 101, 102), sum(101, 102, 100), "ok"},
		{"slower", lower, sum(100, 101, 102), sum(120, 121, 122), "worse"},
		{"faster", lower, sum(100, 101, 102), sum(80, 81, 82), "ok"},
		{"rate down", higher, sum(100, 101, 102), sum(80, 81, 82), "worse"},
		{"rate up", higher, sum(100, 101, 102), sum(120, 121, 122), "ok"},
		{"noisy", lower, sum(80, 100, 120), sum(85, 101, 125), "unresolved"},
		{"noisy but every run better", lower, sum(100, 120, 140), sum(60, 80, 99), "ok"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	var out, errOut bytes.Buffer
	stdout, stderr = &out, &errOut
	defer func() { stdout, stderr = os.Stdout, os.Stderr }()
	a := &report{Host: hostInfo{NProc: 2, CPUModel: "x"}}
	b := &report{Host: hostInfo{NProc: 8, CPUModel: "x"}}
	if code := compareReports(a, b, false); code != 2 {
		t.Fatalf("exit %d comparing different hosts, want 2", code)
	}
	if code := compareReports(a, b, true); code != 0 {
		t.Fatalf("exit %d with -force, want 0", code)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the command's default is %d", f.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(f.Paths, []string{"benchmark"}) || !reflect.DeepEqual(f.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command %v, paths %v", f.Command, f.Paths)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs %q", i, f.Workloads[i], w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the command", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := f.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the command", len(f.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if got := f.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, got, d)
		}
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("%s: duplicate or oversized name or unit", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestTrainRigMatchesTrainingTrace holds the benchmark's phase-by-phase
// training loop to the program's own: same seed, same per-iteration
// statistics as experiments.TrainingTrace, bit for bit.
func TestTrainRigMatchesTrainingTrace(t *testing.T) {
	s, err := trainSetup(runConfig{Seed: 5, Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Iterations = 2
	want, err := experiments.TrainingTrace(s)
	if err != nil {
		t.Fatal(err)
	}
	rig, err := buildTrainRig(s)
	if err != nil {
		t.Fatal(err)
	}
	var got []core.IterationStats
	for i := 0; i < s.Iterations; i++ {
		it, err := rig.iteration(i, newTracer(0))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, it.stats)
	}
	if statsDigest(got) != statsDigest(want.Stats) {
		t.Fatalf("phase-by-phase loop diverged from TrainingTrace:\n got %+v\nwant %+v", got, want.Stats)
	}
}

// lastLine decodes the final line of a run's standard output.
func lastLine(t *testing.T, out string, into any) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), into); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
}

// TestSmoke runs all four workloads, untraced and traced, at tiny sizes with
// every correctness check live.
func TestSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	stdout, stderr = &out, &errOut
	defer func() { stdout, stderr = os.Stdout, os.Stderr }()
	path := t.TempDir() + "/smoke.json"
	if code := run([]string{"-smoke", "-out", path}); code != 0 {
		t.Fatalf("smoke run exited %d\n%s\n%s", code, out.String(), errOut.String())
	}
	var summary struct {
		Workloads map[string]struct {
			Correct  bool               `json:"correct"`
			EndToEnd map[string]float64 `json:"end_to_end"`
		} `json:"workloads"`
		Claim *string `json:"claim"`
	}
	lastLine(t, out.String(), &summary)
	if !strings.HasSuffix(strings.TrimSpace(out.String()), `"claim":null}`) {
		t.Error(`the summary must end with "claim": null`)
	}
	for _, w := range workloads {
		got, ok := summary.Workloads[w.Name]
		if !ok || !got.Correct {
			t.Errorf("%s: missing or incorrect in the summary", w.Name)
		}
		for _, d := range endToEnd {
			if got.EndToEnd[d.Name] <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric is never zero", w.Name, d.Name, got.EndToEnd[d.Name])
			}
		}
	}
	rep, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Host.NProc < 1 || rep.Host.GoVersion == "" || rep.Claim != nil || len(rep.Workloads) != len(workloads) {
		t.Fatalf("result file: %+v", rep)
	}
	// The predictions that hold at any size.
	layer := func(w, m string) float64 { return rep.workload(w).PerLayer[m].Median }
	if layer("serve-hot-mixed", "router.handle_us") != 0 || layer("serve-fleet", "router.handle_us") <= 0 {
		t.Error("router rows must be empty for serve-hot-mixed and filled for serve-fleet")
	}
	if layer("emulate-burst", "rl.update_us") != 0 || layer("emulate-burst", "nn.forward_batch_us") != 0 {
		t.Error("emulate-burst must not touch rl or nn")
	}
	if layer("train-msd", "rl.update_us") <= 0 || layer("train-msd", "httpapi.step_us") != 0 {
		t.Error("train-msd must fill the rl rows and leave httpapi empty")
	}
	if code := compareReports(rep, rep, false); code != 0 {
		t.Errorf("a result compared with itself exits %d", code)
	}
}

// TestDriverContract runs one workload the way the benchmark driver does and
// checks the shape of the result line.
func TestDriverContract(t *testing.T) {
	for _, traced := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		stdout, stderr = &out, &errOut
		code := run([]string{"--workload", "emulate-burst", "--seed", "2", "--seconds", "0.3", "--trace", traced, "-smoke"})
		stdout, stderr = os.Stdout, os.Stderr
		if code != 0 {
			t.Fatalf("exit %d\n%s\n%s", code, out.String(), errOut.String())
		}
		var line map[string]json.RawMessage
		lastLine(t, out.String(), &line)
		if len(line) != 4 {
			t.Fatalf("result line has keys %v", line)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := defsFor(traced == "1")
		if len(metrics) != len(defs) {
			t.Fatalf("trace %s: %d metrics, want %d", traced, len(metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s missing or mis-shaped: %+v", traced, d.Name, m)
			}
		}
		if string(line["correct"]) != "true" || string(line["failed"]) != "0" || string(line["attempted"]) == "0" {
			t.Errorf("trace %s: correct %s, failed %s, attempted %s", traced, line["correct"], line["failed"], line["attempted"])
		}
	}
	var out bytes.Buffer
	stdout, stderr = &out, &out
	defer func() { stdout, stderr = os.Stdout, os.Stderr }()
	if code := run([]string{"--workload", "nope"}); code == 0 {
		t.Error("an unknown workload must not exit 0")
	}
}
