package main

import "fmt"

// metricDef declares one metric: its name, unit, the direction that is
// better, and — for end-to-end metrics — the share of the baseline median
// by which it may worsen before a change counts as a regression.
// BENCHMARK.json at the repository root repeats these tables; a test keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one of them, so "operation" is defined per workload:
//
//	train-msd      one DDPG minibatch update inside the Algorithm-2 loop
//	emulate-burst  one simulated control window (controller decision + step)
//	serve-*        one HTTP request of the closed loop, two workers
//
// All three are chosen to hold still on a host whose hypervisor withholds
// the CPU for milliseconds at a time, a tenth to a third of the time: set-up
// and cost per operation are counted in process CPU time, which a stolen
// slice does not advance, and op_p50_us is the median wall time of
// operations far shorter than a slice. On train-msd the smallest unit
// visible from outside is an iteration of several seconds, so its op_p50_us
// is the median over iterations of CPU time per update. Wall-clock
// throughput and open-loop latency moved by 25-120% between same-code runs
// and are per-layer rows without a bound; README.md has the measurements.
// The bounds are the largest the driver allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
}

// perLayer are the traced run's numbers, one layer per repository package.
// A workload that does not reach a layer reports zero for its rows, which
// is itself the prediction "a change to this layer cannot move this
// workload".
var perLayer = []metricDef{
	// core: Algorithm 2 driven phase by phase (train-msd).
	{"core.iterations", "count", "higher", 0},
	{"core.train_wall_s", "s", "lower", 0},
	{"core.updates_per_s", "1/s", "higher", 0},
	{"core.collect_s", "s", "lower", 0},
	{"core.fit_model_s", "s", "lower", 0},
	{"core.improve_policy_s", "s", "lower", 0},
	{"core.evaluate_s", "s", "lower", 0},
	{"core.improve_share_pct", "%", "lower", 0},
	{"core.phases_explained_pct", "%", "higher", 0},
	{"core.improve_explained_pct", "%", "higher", 0},
	{"core.policy_episodes", "count", "higher", 0},
	{"core.dataset_size", "count", "higher", 0},
	{"core.stats_digest", "hash32", "higher", 0},
	{"core.eval_return", "reward", "higher", 0},
	// rl
	{"rl.updates", "count", "higher", 0},
	{"rl.update_us", "us", "lower", 0},
	{"rl.act_explore_us", "us", "lower", 0},
	{"rl.update_explained_pct", "%", "higher", 0},
	{"rl.snapshot_act_us", "us", "lower", 0},
	// nn / mat / parallel at the trained agent's shapes, batch 64.
	{"nn.forward_batch_us", "us", "lower", 0},
	{"nn.backward_batch_us", "us", "lower", 0},
	{"nn.critic_forward_batch_us", "us", "lower", 0},
	{"nn.critic_backward_batch_us", "us", "lower", 0},
	{"nn.forward_us", "us", "lower", 0},
	{"mat.gemm_us", "us", "lower", 0},
	{"mat.gemm_gflops", "gflop/s", "higher", 0},
	{"parallel.workers", "count", "higher", 0},
	// envmodel
	{"envmodel.fit_epoch_us", "us", "lower", 0},
	{"envmodel.predict_us", "us", "lower", 0},
	{"envmodel.refiner_build_us", "us", "lower", 0},
	{"envmodel.dataset_rows", "count", "higher", 0},
	// env / cluster / sim / workload / baselines (emulate-burst; the serve
	// workloads fill env.step_us from their twin environment).
	{"env.windows_per_s", "1/s", "higher", 0},
	{"env.step_us", "us", "lower", 0},
	{"env.step_p99_us", "us", "lower", 0},
	{"env.reset_us", "us", "lower", 0},
	{"cluster.set_consumers_us", "us", "lower", 0},
	{"cluster.advance_us", "us", "lower", 0},
	{"cluster.drain_us", "us", "lower", 0},
	{"cluster.submitted", "count", "higher", 0},
	{"cluster.completions", "count", "higher", 0},
	{"cluster.completions_per_s", "1/s", "higher", 0},
	{"cluster.conservation_ok", "bool", "higher", 0},
	{"sim.event_ns", "ns", "lower", 0},
	{"workload.inject_burst_us", "us", "lower", 0},
	{"baselines.decide_us", "us", "lower", 0},
	// httpapi: handler spans plus components replayed on a twin.
	{"httpapi.step_us", "us", "lower", 0},
	{"httpapi.info_us", "us", "lower", 0},
	{"httpapi.burst_us", "us", "lower", 0},
	{"httpapi.reset_us", "us", "lower", 0},
	{"httpapi.create_us", "us", "lower", 0},
	{"httpapi.policy_attach_us", "us", "lower", 0},
	{"httpapi.decode_us", "us", "lower", 0},
	{"httpapi.encode_us", "us", "lower", 0},
	{"httpapi.decide_us", "us", "lower", 0},
	{"httpapi.env_step_us", "us", "lower", 0},
	{"httpapi.other_us", "us", "lower", 0},
	{"httpapi.resp_bytes", "B", "lower", 0},
	{"httpapi.contention_us", "us", "lower", 0},
	// router / shardring (serve-fleet only).
	{"router.handle_us", "us", "lower", 0},
	{"router.self_us", "us", "lower", 0},
	{"shardring.owner_ns", "ns", "lower", 0},
	// loadgen: the benchmark's own driver and internal/loadgen transports.
	{"loadgen.capacity_rps", "1/s", "higher", 0},
	{"loadgen.open_p50_us", "us", "lower", 0},
	{"loadgen.sent", "count", "higher", 0},
	{"loadgen.ok", "count", "higher", 0},
	{"loadgen.failed", "count", "lower", 0},
	{"loadgen.self_us", "us", "lower", 0},
	{"loadgen.transport_us", "us", "lower", 0},
	{"loadgen.send_late_p50_us", "us", "lower", 0},
	{"loadgen.send_late_p99_us", "us", "lower", 0},
	{"loadgen.p90_us", "us", "lower", 0},
	{"loadgen.p99_us", "us", "lower", 0},
	{"loadgen.tail_pctl", "%", "higher", 0},
	{"loadgen.tail_us", "us", "lower", 0},
	{"loadgen.max_us", "us", "lower", 0},
	{"loadgen.slo_ok_pct", "%", "higher", 0},
	{"loadgen.backlog_growing", "bool", "lower", 0},
	{"loadgen.hottest_session_share_pct", "%", "lower", 0},
	// nethttp: what one loopback TCP hop adds to the in-process numbers.
	{"nethttp.hop_us", "us", "lower", 0},
	// proc
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.bytes_per_op", "B", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.gc_cpu_pct", "%", "lower", 0},
	{"proc.heap_peak_mb", "MiB", "lower", 0},
	{"proc.cpu_s", "s", "lower", 0},
	{"proc.spans", "count", "higher", 0},
	{"proc.spans_dropped", "count", "lower", 0},
	{"proc.tracing_overhead_pct", "%", "lower", 0},
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(cfg runConfig) (*runResult, error)
}

var workloads = []workloadDef{
	{"train-msd", "Algorithm-2 training loop on the medium MSD setup: rl/nn/mat do nearly all the work, the emulator under 1%, httpapi and router none", runTrain},
	{"emulate-burst", "emulator only, msd and ligo under burst episodes with baseline controllers: cluster/sim/env with deep queues and no neural net", runEmulate},
	{"serve-fleet", "router over two shards, 32 lightly loaded sessions, all auto-steps, uniform choice: wire work and the router hop dominate, the emulator is small", func(c runConfig) (*runResult, error) { return runServe(c, fleetSpec) }},
	{"serve-hot-mixed", "one server without router, Zipf-hot sessions at 3x load, reads beside writes and periodic reset+burst: the session lock and deep-queue env step dominate", func(c runConfig) (*runResult, error) { return runServe(c, hotSpec) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runConfig is what every workload run receives.
type runConfig struct {
	Seed    int64
	Seconds float64
	Traced  bool
	// Smoke shrinks every workload to a fraction of a second of work; the
	// checks stay live.
	Smoke bool
	// SpansOut, when set, receives the traced run's raw spans as JSON.
	SpansOut string
}

// runResult is one run of one workload. Metrics holds every end-to-end
// metric for an untraced run and every per-layer metric for a traced one.
type runResult struct {
	Workload  string
	Traced    bool
	Attempted int
	Failed    int
	// Problems lists every correctness violation found; a run is correct
	// when it is empty and nothing failed.
	Problems []string
	Metrics  map[string]float64
}

func (r *runResult) correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

func (r *runResult) problemf(format string, args ...any) {
	// Cap the list: one broken invariant can repeat for every request.
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
	r.Failed++
}

// newResult starts a result whose metric map already holds every metric the
// run must report, so a workload that skips a layer reports zero for it.
func newResult(w string, traced bool) *runResult {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	m := make(map[string]float64, len(defs))
	for _, d := range defs {
		m[d.Name] = 0
	}
	return &runResult{Workload: w, Traced: traced, Metrics: m}
}
