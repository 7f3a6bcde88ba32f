// Package loadgen replays ReqBench-style traces against a `miras serve` or
// `miras route` and measures the serving tier: latency quantiles,
// throughput, and error rates. Traces are generated deterministically from
// a seed — a session population plus a request mix whose session choice is
// either uniform or Zipf-skewed (the skewed case models the hot-session
// reality of production serving: a few sessions take most of the traffic).
//
// The replay is closed-loop: a fixed worker pool draws operations from the
// trace in order, so concurrency — not arrival rate — is the controlled
// variable, and the measured throughput is the tier's capacity at that
// concurrency.
//
// It is the driver behind `miras load` and the demo gates: zero 5xx under
// skew, availability and error budgets across a mid-trace shard kill. Its
// latency and throughput figures describe one run; committed performance
// numbers come from the repository's benchmark (go run ./benchmark), which
// reuses this package's in-process transports.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"miras/internal/httpapi"
)

// Op kinds in a trace.
const (
	OpStep = "step"
	OpInfo = "info"
)

// Op is one trace entry: an operation against one session of the
// population (sessions are numbered 0..Sessions-1; Run maps them to real
// ids at replay time).
type Op struct {
	Session int
	Kind    string
}

// Config describes a load run. Zero fields take the documented defaults.
type Config struct {
	// Target is the base URL of a `miras serve` or `miras route`. Optional
	// when Transport is set (it defaults to "http://in-process": the URL
	// then only shapes request paths).
	Target string
	// Transport, when non-nil, carries every request instead of the
	// network — pass NewHandlerTransport(server.Handler()) to drive an
	// httpapi.Server in-process, without sockets.
	Transport http.RoundTripper
	// Requests is the trace length (default 1000).
	Requests int
	// Sessions is the session population size (default 16).
	Sessions int
	// Concurrency is the worker count (default 8).
	Concurrency int
	// Skew selects the session mix: "uniform" or "zipf" (default uniform).
	Skew string
	// ZipfS is the Zipf exponent (default 1.2; must be > 1).
	ZipfS float64
	// StepShare is the fraction of trace ops that are steps, the rest
	// being info reads (default 0.92).
	StepShare float64
	// Seed drives trace generation (default 1).
	Seed int64
	// Ensemble, Budget, WindowSec configure the created sessions
	// (defaults "toy", 6, 10).
	Ensemble  string
	Budget    int
	WindowSec float64
	// Timeout bounds each request (default 30s).
	Timeout time.Duration
	// ChaosKillAt, in (0,1), arms chaos mode: when the dispatch loop
	// reaches that fraction of the trace, KillHook runs once — typically
	// SIGKILLing a shard process or killing a FleetTransport member — and
	// the replay carries on into the outage. The summary's availability
	// and error-budget columns then measure how well the serving tier
	// absorbed the failure.
	ChaosKillAt float64
	// KillHook is the chaos action (required when ChaosKillAt > 0).
	KillHook func()
	// IdempotencyKeys tags every step POST with a unique
	// X-Miras-Idempotency-Key so a resilient router may retry it; without
	// the key, step POSTs are not idempotent and are never retried.
	IdempotencyKeys bool
	// ErrorBudget, when positive, is the client-visible error-rate bound
	// the run is judged against (e.g. 0.01 = 99% availability target); the
	// summary reports whether the run stayed within it.
	ErrorBudget float64
}

func (c *Config) withDefaults() error {
	if c.Target == "" {
		if c.Transport == nil {
			return fmt.Errorf("loadgen: Target is required")
		}
		c.Target = "http://in-process"
	}
	if c.Requests <= 0 {
		c.Requests = 1000
	}
	if c.Sessions <= 0 {
		c.Sessions = 16
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	switch c.Skew {
	case "":
		c.Skew = "uniform"
	case "uniform", "zipf":
	default:
		return fmt.Errorf("loadgen: unknown skew %q (want uniform or zipf)", c.Skew)
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.Skew == "zipf" && c.ZipfS <= 1 {
		return fmt.Errorf("loadgen: ZipfS must be > 1, got %g", c.ZipfS)
	}
	if c.StepShare == 0 {
		c.StepShare = 0.92
	}
	if c.StepShare < 0 || c.StepShare > 1 {
		return fmt.Errorf("loadgen: StepShare must be in [0,1], got %g", c.StepShare)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Ensemble == "" {
		c.Ensemble = "toy"
	}
	if c.Budget <= 0 {
		c.Budget = 6
	}
	if c.WindowSec == 0 {
		c.WindowSec = 10
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.ChaosKillAt < 0 || c.ChaosKillAt >= 1 {
		if c.ChaosKillAt != 0 {
			return fmt.Errorf("loadgen: ChaosKillAt must be in (0,1), got %g", c.ChaosKillAt)
		}
	}
	if c.ChaosKillAt > 0 && c.KillHook == nil {
		return fmt.Errorf("loadgen: ChaosKillAt requires a KillHook")
	}
	if c.ErrorBudget < 0 || c.ErrorBudget > 1 {
		return fmt.Errorf("loadgen: ErrorBudget must be in [0,1], got %g", c.ErrorBudget)
	}
	return nil
}

// GenTrace deterministically generates the request trace for cfg: same
// config, same trace, byte for byte.
func GenTrace(cfg Config) ([]Op, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.Skew == "zipf" && cfg.Sessions > 1 {
		zipf = rand.NewZipf(r, cfg.ZipfS, 1, uint64(cfg.Sessions-1))
	}
	trace := make([]Op, cfg.Requests)
	for i := range trace {
		var sess int
		if zipf != nil {
			sess = int(zipf.Uint64())
		} else {
			sess = r.Intn(cfg.Sessions)
		}
		kind := OpStep
		if r.Float64() >= cfg.StepShare {
			kind = OpInfo
		}
		trace[i] = Op{Session: sess, Kind: kind}
	}
	return trace, nil
}

// Result is a load run's measurement, JSON-shaped for `miras load`'s
// summary output.
type Result struct {
	Target      string  `json:"target"`
	Requests    int     `json:"requests"`
	Sessions    int     `json:"sessions"`
	Concurrency int     `json:"concurrency"`
	Skew        string  `json:"skew"`
	ZipfS       float64 `json:"zipf_s,omitempty"`
	Seed        int64   `json:"seed"`

	DurationSec   float64 `json:"duration_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P90Ms         float64 `json:"p90_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`

	Errors    int            `json:"errors"`
	Error5xx  int            `json:"errors_5xx"`
	ErrorRate float64        `json:"error_rate"`
	Statuses  map[string]int `json:"status_counts"`

	// HotShare is the hottest session's fraction of the trace — near
	// 1/sessions for uniform, far above it under Zipf skew.
	HotShare float64 `json:"hottest_session_share"`

	// AvailabilityPct is the client-visible success rate as a percentage:
	// 100·(1 − error_rate).
	AvailabilityPct float64 `json:"availability_pct"`
	// ChaosKillAt echoes the chaos trigger point, when armed.
	ChaosKillAt float64 `json:"chaos_kill_at,omitempty"`
	// ErrorBudget echoes the configured bound and WithinErrorBudget
	// reports the verdict (both only when a budget was set).
	ErrorBudget       float64 `json:"error_budget,omitempty"`
	WithinErrorBudget *bool   `json:"within_error_budget,omitempty"`
}

// Run creates the session population, replays the trace through a worker
// pool, deletes the population, and reports the measurement. Session
// creation and deletion are not measured — the replay is.
func Run(cfg Config) (Result, error) {
	if err := cfg.withDefaults(); err != nil {
		return Result{}, err
	}
	trace, err := GenTrace(cfg)
	if err != nil {
		return Result{}, err
	}
	client := &http.Client{Timeout: cfg.Timeout, Transport: cfg.Transport}

	// Population setup (unmeasured).
	ids := make([]string, cfg.Sessions)
	var actionDim int
	for i := range ids {
		info, err := createSession(client, cfg)
		if err != nil {
			return Result{}, fmt.Errorf("create session %d: %w", i, err)
		}
		ids[i] = info.ID
		actionDim = info.ActionDim
	}
	defer func() {
		for _, id := range ids {
			req, err := http.NewRequest("DELETE", cfg.Target+"/v1/sessions/"+id, nil)
			if err != nil {
				continue
			}
			if resp, err := client.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	// One step body serves every step: the budget spread evenly over the
	// action vector.
	stepBody, err := json.Marshal(httpapi.StepRequest{Allocation: evenAllocation(cfg.Budget, actionDim)})
	if err != nil {
		return Result{}, err
	}

	// Closed-loop replay.
	samples := make([]sample, len(trace))
	ops := make(chan int, cfg.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ops {
				op := trace[i]
				var (
					req *http.Request
					err error
				)
				if op.Kind == OpStep {
					req, err = http.NewRequest("POST",
						cfg.Target+"/v1/sessions/"+ids[op.Session]+"/step",
						bytes.NewReader(stepBody))
					if err == nil && cfg.IdempotencyKeys {
						req.Header.Set(httpapi.IdempotencyKeyHeader,
							fmt.Sprintf("lg-%d-%d", cfg.Seed, i))
					}
				} else {
					req, err = http.NewRequest("GET",
						cfg.Target+"/v1/sessions/"+ids[op.Session], nil)
				}
				if err != nil {
					samples[i] = sample{status: -1}
					continue
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					samples[i] = sample{ms: float64(time.Since(t0).Nanoseconds()) / 1e6, status: 0}
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				samples[i] = sample{
					ms:     float64(time.Since(t0).Nanoseconds()) / 1e6,
					status: resp.StatusCode,
				}
			}
		}()
	}
	killAt := -1
	if cfg.ChaosKillAt > 0 {
		killAt = int(cfg.ChaosKillAt * float64(len(trace)))
		if killAt >= len(trace) {
			killAt = len(trace) - 1
		}
	}
	for i := range trace {
		if i == killAt {
			cfg.KillHook()
		}
		ops <- i
	}
	close(ops)
	wg.Wait()
	return summarize(cfg, trace, samples, time.Since(start)), nil
}

// sample is one replayed request's outcome: latency and HTTP status, with
// status 0 for a transport failure and -1 for a request that never left
// the builder.
type sample struct {
	ms     float64
	status int
}

// summarize aggregates a replay into its Result. It is total: an empty
// trace, an all-error run, and a zero elapsed time all produce finite
// numbers (zeros), never NaN — summaries feed budget comparisons, and NaN
// passes no ordered comparison.
func summarize(cfg Config, trace []Op, samples []sample, elapsed time.Duration) Result {
	res := Result{
		Target:      cfg.Target,
		Requests:    cfg.Requests,
		Sessions:    cfg.Sessions,
		Concurrency: cfg.Concurrency,
		Skew:        cfg.Skew,
		Seed:        cfg.Seed,
		DurationSec: elapsed.Seconds(),
		Statuses:    make(map[string]int),
	}
	if cfg.Skew == "zipf" {
		res.ZipfS = cfg.ZipfS
	}
	lat := make([]float64, 0, len(samples))
	perSession := make([]int, cfg.Sessions)
	for i, s := range samples {
		perSession[trace[i].Session]++
		key := fmt.Sprintf("%d", s.status)
		if s.status == 0 || s.status == -1 {
			key = "transport_error"
		}
		res.Statuses[key]++
		if s.status < 200 || s.status >= 300 {
			res.Errors++
		}
		if s.status >= 500 {
			res.Error5xx++
		}
		if s.status > 0 {
			lat = append(lat, s.ms)
		}
	}
	sort.Float64s(lat)
	res.P50Ms = quantile(lat, 0.50)
	res.P90Ms = quantile(lat, 0.90)
	res.P99Ms = quantile(lat, 0.99)
	if n := len(lat); n > 0 {
		res.MaxMs = lat[n-1]
	}
	if elapsed > 0 {
		res.ThroughputRPS = float64(len(trace)) / elapsed.Seconds()
	}
	if len(trace) > 0 {
		res.ErrorRate = float64(res.Errors) / float64(len(trace))
		hot := 0
		for _, n := range perSession {
			if n > hot {
				hot = n
			}
		}
		res.HotShare = float64(hot) / float64(len(trace))
	}
	res.AvailabilityPct = 100 * (1 - res.ErrorRate)
	res.ChaosKillAt = cfg.ChaosKillAt
	if cfg.ErrorBudget > 0 {
		res.ErrorBudget = cfg.ErrorBudget
		within := res.ErrorRate <= cfg.ErrorBudget
		res.WithinErrorBudget = &within
	}
	return res
}

func createSession(client *http.Client, cfg Config) (httpapi.SessionInfo, error) {
	body, err := json.Marshal(httpapi.CreateRequest{
		Ensemble:  cfg.Ensemble,
		Budget:    cfg.Budget,
		WindowSec: cfg.WindowSec,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return httpapi.SessionInfo{}, err
	}
	resp, err := client.Post(cfg.Target+"/v1/sessions", "application/json",
		bytes.NewReader(body))
	if err != nil {
		return httpapi.SessionInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		return httpapi.SessionInfo{}, fmt.Errorf("create status %d: %s", resp.StatusCode, raw)
	}
	var info httpapi.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return httpapi.SessionInfo{}, err
	}
	return info, nil
}

// evenAllocation spreads budget across dim consumers as evenly as integer
// arithmetic allows.
func evenAllocation(budget, dim int) []int {
	if dim <= 0 {
		return nil
	}
	alloc := make([]int, dim)
	base := budget / dim
	rem := budget % dim
	for i := range alloc {
		alloc[i] = base
		if i < rem {
			alloc[i]++
		}
	}
	return alloc
}

// quantile reads the q-quantile from sorted (ascending) latencies using
// the textbook nearest-rank method: the smallest value v such that at
// least ⌈q·n⌉ of the n samples are <= v. The result is always an element
// of the set (no interpolation), and quantile(s, 1) is the maximum.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}
