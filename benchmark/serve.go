package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"miras/internal/env"
	"miras/internal/experiments"
	"miras/internal/httpapi"
	"miras/internal/loadgen"
	"miras/internal/mat"
	"miras/internal/rl"
	"miras/internal/router"
	"miras/internal/shardring"
	"miras/internal/workflow"
	"miras/internal/workload"
)

// Every serve session is an msd environment with the paper's budget and
// control window.
const (
	serveEnsemble  = "msd"
	serveBudget    = 14
	serveWindowSec = 30
)

// serveSpec describes one serve workload. The open-loop rates are frozen:
// they were derived once as roughly a fifth of the closed-loop capacity
// measured on the reference host, rounded to two significant figures (see
// README.md for why not more), and never follow the host.
type serveSpec struct {
	name string
	// fleet puts a router in front of two shard servers; otherwise one
	// server is driven directly.
	fleet bool
	// rateMul scales the ensemble's default arrival rates.
	rateMul  float64
	sessions int
	trace    traceSpec
	openRPS  float64
}

var fleetSpec = serveSpec{
	name: "serve-fleet", fleet: true, rateMul: 1, sessions: 32,
	trace:   traceSpec{StepShare: 1},
	openRPS: 6000,
}

var hotSpec = serveSpec{
	name: "serve-hot-mixed", rateMul: 3, sessions: 32,
	trace:   traceSpec{ZipfS: 1.2, StepShare: 0.7, ResetEvery: 40},
	openRPS: 2500,
}

// serveRig is a running serve topology and its session population.
type serveRig struct {
	spec serveSpec
	tr   *tracer
	// top carries the load generator's requests: a handler transport over
	// the router's or the server's handler, or a real TCP transport in the
	// nethttp probe.
	top  http.RoundTripper
	base string
	ids  []string

	policy     *rl.PolicySnapshot
	policyBody []byte
	rates      []float64
	burstBody  [3][]byte
	seed       int64

	// createUs and attachUs time each set-up call, for httpapi.create_us
	// and httpapi.policy_attach_us.
	createUs, attachUs []float64
	// bufs are the workers' response-body buffers.
	bufs [loadWorkers]bytes.Buffer
}

func newServeRig(cfg runConfig, spec serveSpec, tr *tracer) (*serveRig, error) {
	if cfg.Smoke {
		spec.sessions = 4
		spec.openRPS /= 10
	}
	spec.trace.Sessions = spec.sessions
	r := &serveRig{spec: spec, tr: tr, base: "http://bench", seed: cfg.Seed}
	// An untrained 64x64x64 actor: serving cost does not depend on what the
	// weights say, and building it takes milliseconds.
	agent, err := rl.NewDDPG(rl.Config{
		StateDim: 4, ActionDim: 4, Hidden: []int{64, 64, 64},
		ReplayCapacity: 1, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	r.policy = agent.Snapshot()
	if r.policyBody, err = json.Marshal(r.policy); err != nil {
		return nil, err
	}
	for _, rate := range workload.DefaultRates(workflow.NewMSD()) {
		r.rates = append(r.rates, rate*spec.rateMul)
	}
	bursts, err := workload.PaperBursts(serveEnsemble)
	if err != nil {
		return nil, err
	}
	for i, counts := range bursts {
		if r.burstBody[i], err = json.Marshal(httpapi.BurstRequest{Counts: counts}); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// buildServeRig builds the workload's topology in-process and fills it with
// sessions, each with the policy attached.
func buildServeRig(cfg runConfig, spec serveSpec, tr *tracer) (*serveRig, error) {
	r, err := newServeRig(cfg, spec, tr)
	if err != nil {
		return nil, err
	}
	if !spec.fleet {
		r.top = loadgen.NewHandlerTransport(traceHandler(tr, endpointSpan, httpapi.NewServer().Handler()))
	} else {
		members := []string{"http://shard-0", "http://shard-1"}
		fleet := loadgen.NewFleetTransport()
		for _, m := range members {
			srv := httpapi.NewServer(httpapi.WithShardTopology(m, members))
			fleet.Register(m, traceHandler(tr, endpointSpan, srv.Handler()))
		}
		rt, err := router.New(members, router.WithClient(&http.Client{
			Transport: tracedTransport{tr: tr, name: "router.shard_call", next: fleet},
		}))
		if err != nil {
			return nil, err
		}
		r.top = loadgen.NewHandlerTransport(traceHandler(tr, routerSpan, rt.Handler()))
	}
	return r, r.populate()
}

// populate creates the sessions and attaches the policy to each.
func (r *serveRig) populate() error {
	r.ids = make([]string, r.spec.sessions)
	for i := range r.ids {
		body, err := json.Marshal(httpapi.CreateRequest{
			Ensemble:  serveEnsemble,
			Budget:    serveBudget,
			WindowSec: serveWindowSec,
			Seed:      r.seed*1000 + int64(i) + 1,
			Rates:     r.rates,
		})
		if err != nil {
			return err
		}
		var info httpapi.SessionInfo
		t0 := time.Now()
		if err := r.call("POST", "/v1/sessions", body, http.StatusCreated, &info); err != nil {
			return fmt.Errorf("create session %d: %w", i, err)
		}
		t1 := time.Now()
		if err := r.call("POST", "/v1/sessions/"+info.ID+"/policy", r.policyBody, http.StatusOK, &info); err != nil {
			return fmt.Errorf("attach policy to %s: %w", info.ID, err)
		}
		r.createUs = append(r.createUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
		r.attachUs = append(r.attachUs, float64(time.Since(t1).Nanoseconds())/1e3)
		if !info.HasPolicy {
			return fmt.Errorf("session %s reports no policy after attach", info.ID)
		}
		r.ids[i] = info.ID
	}
	return nil
}

// call makes one set-up or check request and decodes the JSON answer.
func (r *serveRig) call(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, r.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := r.top.RoundTrip(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}

var emptyBody = []byte("{}")

// send performs one trace operation on worker w's buffer and checks the
// answer: 2xx, and for a step that the policy (not the HPA fallback)
// allocated within budget.
func (r *serveRig) send(w int, o op) outcome {
	root := r.tr.start("loadgen.request", noSpan)
	defer r.tr.end(root)
	ctx := context.Background()
	if root != noSpan {
		ctx = withSpan(ctx, root)
	}
	url := r.base + "/v1/sessions/" + r.ids[o.Session]
	var req *http.Request
	var err error
	switch o.Kind {
	case opStep:
		req, err = http.NewRequestWithContext(ctx, "POST", url+"/step", bytes.NewReader(emptyBody))
	case opInfo:
		req, err = http.NewRequestWithContext(ctx, "GET", url, nil)
	case opReset:
		req, err = http.NewRequestWithContext(ctx, "POST", url+"/reset", nil)
	case opBurst:
		req, err = http.NewRequestWithContext(ctx, "POST", url+"/burst", bytes.NewReader(r.burstBody[o.Burst]))
	}
	if err != nil {
		return outcome{}
	}
	resp, err := r.top.RoundTrip(req)
	if err != nil {
		return outcome{}
	}
	buf := &r.bufs[w]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode < 200 || resp.StatusCode > 299 {
		return outcome{}
	}
	if o.Kind != opStep {
		return outcome{ok: true}
	}
	f, ok := scanStep(buf.Bytes())
	return outcome{
		ok:     ok && f.policy && f.allocSum <= serveBudget,
		window: int32(f.window),
	}
}

// closed runs a closed-loop phase of about dur with the given worker count
// over a fresh trace.
func (r *serveRig) closed(seed int64, workers int, dur time.Duration) []sample {
	samples, _ := r.closedTicked(seed, workers, dur)
	return samples
}

// closedTicked is closed with the process's CPU time read every quarter of
// a second (at least eight times) alongside.
func (r *serveRig) closedTicked(seed int64, workers int, dur time.Duration) ([]sample, []cpuTick) {
	// More operations than any host will get through: 100k per second.
	ops := genOps(seed, int(100_000*dur.Seconds())+workers, r.spec.trace)
	clk := newWallClock()
	period := 250 * time.Millisecond
	if dur < 8*period {
		period = dur / 8
	}
	cpu := startCPUSampler(clk, period)
	samples := closedLoop(clk, ops, workers, dur, func(w, i int) outcome { return r.send(w, ops[i]) })
	return samples, cpu.finish()
}

// open runs an open-loop phase of about dur at the workload's frozen rate.
func (r *serveRig) open(seed int64, dur time.Duration) ([]sample, []op) {
	n := int(r.spec.openRPS * dur.Seconds())
	if n < 1 {
		n = 1
	}
	ops := genOps(seed, n, r.spec.trace)
	due := genSchedule(seed+1, n, r.spec.openRPS)
	return openLoop(newWallClock(), ops, due, loadWorkers, func(w, i int) outcome { return r.send(w, ops[i]) }), ops
}

// backlogProblem fails the run if the open-loop generator fell ever further
// behind its schedule: the system cannot hold the frozen rate.
func (r *serveRig) backlogProblem(res *runResult, open phaseStats) bool {
	growing := backlogGrowing(open.lateUs)
	if growing {
		res.problemf("open loop at %.0f rps: the generator's backlog kept growing", r.spec.openRPS)
	}
	return growing
}

// finalWindows reads each session's own window count.
func (r *serveRig) finalWindows() ([]int, error) {
	out := make([]int, len(r.ids))
	for i, id := range r.ids {
		var info httpapi.SessionInfo
		if err := r.call("GET", "/v1/sessions/"+id, nil, http.StatusOK, &info); err != nil {
			return nil, err
		}
		out[i] = info.Windows
	}
	return out, nil
}

// Phase lengths of the untraced run as shares of its --seconds.
const (
	warmShare   = 0.05
	closedShare = 0.95
)

func runServe(cfg runConfig, spec serveSpec) (*runResult, error) {
	res := newResult(spec.name, cfg.Traced)
	capacity := 0
	if cfg.Traced {
		capacity = 1 << 20
	}
	tr := newTracer(capacity)
	var rig *serveRig
	setup, err := medianSetup(cfg, func() (err error) {
		rig, err = buildServeRig(cfg, spec, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	check := newServeChecker(rig.spec.sessions)
	account := func(samples []sample) phaseStats {
		check.add(samples)
		st := summarize(samples)
		res.Attempted += st.sent
		res.Failed += st.sent - st.ok
		return st
	}
	account(rig.closed(cfg.Seed*100+1, loadWorkers, secs(cfg.Seconds*warmShare)))

	m := res.Metrics
	if !cfg.Traced {
		closedSamples, ticks := rig.closedTicked(cfg.Seed*100+2, loadWorkers, secs(cfg.Seconds*closedShare))
		if closed := account(closedSamples); closed.sent == 0 {
			return nil, fmt.Errorf("%s: closed-loop phase sent nothing", spec.name)
		}
		m["setup_s"] = setup.Seconds()
		// CPU per request as the median over quarter-second intervals, and
		// the median request: a slice the host withholds costs one interval
		// or one request, not the phase's mean.
		m["cpu_us_per_op"] = median(intervalCPUUs(closedSamples, ticks))
		m["op_p50_us"] = p50Us(closedSamples)
	} else if err := rig.traced(cfg, res, account); err != nil {
		return nil, err
	}

	final, err := rig.finalWindows()
	if err != nil {
		return nil, err
	}
	check.verify(res, final)
	return res, nil
}

// traced is the layer-by-layer run. Closed-loop slices come first: untraced,
// traced, untraced — the traced slice against the mean of its neighbours is
// the tracing overhead, whichever way the sessions' growing op logs drift —
// then a traced one-worker slice. Handler and router times are reported from
// the one-worker slice, where they can be set against components probed on
// one goroutine; what the second worker adds is httpapi.contention_us. A
// traced open-loop phase gives the latency distribution, and the component
// probes follow.
func (r *serveRig) traced(cfg runConfig, res *runResult, account func([]sample) phaseStats) error {
	m := res.Metrics
	slice := secs(cfg.Seconds * 0.10)
	tr := r.tr

	before := account(r.closed(cfg.Seed*100+2, loadWorkers, slice))
	tr.on.Store(true)
	p0 := readProc()
	two := account(r.closed(cfg.Seed*100+4, loadWorkers, slice))
	p1 := readProc()
	tr.on.Store(false)
	aggTwo := aggregate(tr.recorded())
	if cfg.SpansOut != "" {
		if err := tr.dump(cfg.SpansOut); err != nil {
			return err
		}
	}
	tr.reset()
	after := account(r.closed(cfg.Seed*100+5, loadWorkers, slice))
	tr.on.Store(true)
	account(r.closed(cfg.Seed*100+6, 1, slice))
	agg := aggregate(tr.recorded())
	tr.reset()
	openSamples, openOps := r.open(cfg.Seed*100+3, secs(cfg.Seconds*0.25))
	open := account(openSamples)
	tr.on.Store(false)
	tr.reset()
	if two.sent == 0 || before.sent == 0 || after.sent == 0 {
		return fmt.Errorf("%s: a closed-loop slice sent nothing", r.spec.name)
	}

	for _, k := range []string{"step", "info", "burst", "reset"} {
		m["httpapi."+k+"_us"] = agg["httpapi."+k].meanUs()
	}
	m["httpapi.create_us"] = mat.VecMean(r.createUs)
	m["httpapi.policy_attach_us"] = mat.VecMean(r.attachUs)
	m["httpapi.contention_us"] = handlerMeanUs(aggTwo) - handlerMeanUs(agg)
	m["router.handle_us"] = agg["router.handle"].meanUs()
	m["router.self_us"] = agg["router.handle"].meanSelfUs()
	m["loadgen.self_us"] = agg["loadgen.request"].meanSelfUs()

	m["loadgen.capacity_rps"] = (before.rps() + after.rps()) / 2
	m["loadgen.open_p50_us"] = quantile(open.latencyUs, 0.5)
	m["loadgen.sent"] = float64(open.sent)
	m["loadgen.ok"] = float64(open.ok)
	m["loadgen.failed"] = float64(open.sent - open.ok)
	late := sortedCopy(open.lateUs)
	m["loadgen.send_late_p50_us"] = quantile(late, 0.5)
	m["loadgen.send_late_p99_us"] = quantile(late, 0.99)
	m["loadgen.p90_us"] = quantile(open.latencyUs, 0.90)
	m["loadgen.p99_us"] = quantile(open.latencyUs, 0.99)
	tail := tailPercentile(open.sent)
	m["loadgen.tail_pctl"] = tail
	m["loadgen.tail_us"] = quantile(open.latencyUs, tail/100)
	m["loadgen.max_us"] = quantile(open.latencyUs, 1)
	if open.sent > 0 {
		m["loadgen.slo_ok_pct"] = 100 * float64(open.inSLO) / float64(open.sent)
	}
	if r.backlogProblem(res, open) {
		m["loadgen.backlog_growing"] = 1
	}
	m["loadgen.hottest_session_share_pct"] = hottestShare(openOps, r.spec.sessions)

	procMetrics(m, p0, p1, two.sent)
	m["proc.spans"] = float64(tr.total())
	m["proc.spans_dropped"] = float64(tr.dropped.Load())
	m["proc.tracing_overhead_pct"] = 100 * (m["loadgen.capacity_rps"]/two.rps() - 1)

	if err := r.componentProbes(m, secs(cfg.Seconds*0.02), account); err != nil {
		return err
	}
	hop, err := netHop(cfg, r.spec, secs(cfg.Seconds*0.05))
	if err != nil {
		// A sandbox without loopback sockets loses this one diagnostic row,
		// not the run.
		fmt.Fprintf(stderr, "nethttp.hop_us not measured: %v\n", err)
	}
	m["nethttp.hop_us"] = hop
	return nil
}

// handlerMeanUs is the mean duration of all httpapi handler spans.
func handlerMeanUs(agg map[string]spanAgg) float64 {
	var all spanAgg
	for name, a := range agg {
		if strings.HasPrefix(name, "httpapi.") {
			all.count += a.count
			all.durNs += a.durNs
		}
	}
	return all.meanUs()
}

// componentProbes replays the parts of a step request outside the server —
// body decode, policy decision, environment step, response encode — on the
// public wire types, the attached snapshot and a twin of session 0's
// environment driven the way the trace drives a session, each for about d.
// What the handler span spends beyond them is httpapi.other_us.
func (r *serveRig) componentProbes(m map[string]float64, d time.Duration, account func([]sample) phaseStats) error {
	// One real step response, for its size and as the encode probe's input.
	var stepResp httpapi.StepResponse
	probe := sample{op: op{Kind: opStep}}
	probe.outcome = r.send(0, probe.op)
	account([]sample{probe})
	if !probe.ok {
		return fmt.Errorf("component probe: step request failed")
	}
	raw := append([]byte(nil), r.bufs[0].Bytes()...)
	if err := json.Unmarshal(raw, &stepResp); err != nil {
		return err
	}
	m["httpapi.resp_bytes"] = float64(len(raw))
	var decodeErr error
	m["httpapi.decode_us"] = probeUs(d, 1, func() {
		var req httpapi.StepRequest
		if err := json.NewDecoder(bytes.NewReader(emptyBody)).Decode(&req); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return decodeErr
	}
	var encoded bytes.Buffer
	m["httpapi.encode_us"] = probeUs(d, 1, func() {
		encoded.Reset()
		_ = json.NewEncoder(&encoded).Encode(stepResp)
	})

	twin, err := experiments.BuildHarness(experiments.Setup{
		EnsembleName: serveEnsemble, Budget: serveBudget, WindowSec: serveWindowSec,
		Rates: r.rates, Seed: r.seed*1000 + 1,
	}, 0)
	if err != nil {
		return err
	}
	bursts, err := workload.PaperBursts(serveEnsemble)
	if err != nil {
		return err
	}
	scratch := r.policy.NewScratch()
	alloc := make([]int, twin.Env.ActionDim())
	state := twin.Env.State()
	var decide, step time.Duration
	steps := 0
	var stepErr error
	for start := time.Now(); steps == 0 || time.Since(start) < 4*d; steps++ {
		if every := r.spec.trace.ResetEvery; every > 0 && steps%every == every-1 {
			twin.Env.Reset()
			if err := twin.Generator.InjectBurst(bursts[steps/every%3]); err != nil {
				return err
			}
			state = twin.Env.State()
		}
		t0 := time.Now()
		env.SimplexToAllocationTo(alloc, r.policy.ActTo(scratch, state), serveBudget)
		t1 := time.Now()
		out, err := twin.Env.Step(alloc)
		step += time.Since(t1)
		decide += t1.Sub(t0)
		if err != nil {
			stepErr = err
			break
		}
		state = out.State
	}
	if stepErr != nil {
		return stepErr
	}
	m["httpapi.decide_us"] = float64(decide.Nanoseconds()) / 1e3 / float64(steps)
	m["httpapi.env_step_us"] = float64(step.Nanoseconds()) / 1e3 / float64(steps)
	m["env.step_us"] = m["httpapi.env_step_us"]
	m["httpapi.other_us"] = m["httpapi.step_us"] - m["httpapi.decode_us"] - m["httpapi.encode_us"] -
		m["httpapi.decide_us"] - m["httpapi.env_step_us"]
	m["rl.snapshot_act_us"] = probeUs(d, 1, func() { r.policy.ActTo(scratch, state) })

	noop := loadgen.NewHandlerTransport(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	m["loadgen.transport_us"] = probeUs(d, 1, func() {
		req, err := http.NewRequest("POST", r.base+"/v1/sessions/s1/step", bytes.NewReader(emptyBody))
		if err != nil {
			return
		}
		if resp, err := noop.RoundTrip(req); err == nil {
			resp.Body.Close()
		}
	})
	if r.spec.fleet {
		ring, err := shardring.New([]string{"http://shard-0", "http://shard-1"}, 0)
		if err != nil {
			return err
		}
		const batch = 256
		m["shardring.owner_ns"] = 1e3 * probeUs(d, batch, func() {
			for i := 0; i < batch; i++ {
				ring.Owner(r.ids[i%len(r.ids)])
			}
		})
	}
	return nil
}

// traceHandler records a span around every request h serves, named by name.
func traceHandler(tr *tracer, name func(*http.Request) string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !tr.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		id := tr.start(name(req), spanFrom(req.Context()))
		h.ServeHTTP(w, req.WithContext(withSpan(req.Context(), id)))
		tr.end(id)
	})
}

func routerSpan(*http.Request) string { return "router.handle" }

// endpointSpan names an httpapi server's span after the endpoint served.
func endpointSpan(req *http.Request) string {
	p := req.URL.Path
	switch {
	case strings.HasSuffix(p, "/step"):
		return "httpapi.step"
	case strings.HasSuffix(p, "/reset"):
		return "httpapi.reset"
	case strings.HasSuffix(p, "/burst"):
		return "httpapi.burst"
	case strings.HasSuffix(p, "/policy"):
		return "httpapi.policy"
	case req.Method == http.MethodPost:
		return "httpapi.create"
	default:
		return "httpapi.info"
	}
}

// tracedTransport times the router's upstream calls: its span is the child
// that router.self_us subtracts from the router's own span.
type tracedTransport struct {
	tr   *tracer
	name string
	next http.RoundTripper
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.on.Load() {
		return t.next.RoundTrip(req)
	}
	id := t.tr.start(t.name, spanFrom(req.Context()))
	resp, err := t.next.RoundTrip(req.WithContext(withSpan(req.Context(), id)))
	t.tr.end(id)
	return resp, err
}
