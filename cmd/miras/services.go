package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"miras/internal/checkpoint"
	"miras/internal/httpapi"
	"miras/internal/loadgen"
	"miras/internal/obs"
	"miras/internal/router"
)

// Serving settings that have only ever had one value.
const (
	requestTimeout = 30 * time.Second // per API request; slower ones get 408 request_timeout
	slowRequest    = 10 * time.Second // span wall time that triggers a -profile-dir capture
	sweepInterval  = 30 * time.Second // period of evicting sessions past their TTL or idle bound
)

// listener is the flag block and the listen / SIGINT-SIGTERM / graceful
// drain loop that serve and route share.
type listener struct {
	addr            string
	shutdownTimeout time.Duration
}

func (l *listener) declare(fs *flag.FlagSet) {
	fs.StringVar(&l.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.DurationVar(&l.shutdownTimeout, "shutdown-timeout", 5*time.Second,
		"grace period for draining in-flight requests on SIGINT/SIGTERM")
}

// run serves h on -addr until SIGINT/SIGTERM, then drains in-flight
// requests for up to -shutdown-timeout. Each background loop runs under a
// context that ends with the signal (or a failed listen), and run returns
// only after every loop has.
func (l *listener) run(w io.Writer, name string, h http.Handler, background ...func(context.Context)) error {
	srv := &http.Server{
		Addr:              l.addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		// Generous write timeout: pprof CPU profiles block for their
		// ?seconds= duration (30 s default) before writing.
		WriteTimeout: 90 * time.Second,
		IdleTimeout:  120 * time.Second,
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for _, loop := range background {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(ctx)
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(w, "miras %s listening on %s\n", name, l.addr)
	select {
	case err := <-errc: // ListenAndServe never returns nil: a bind failure
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills hard
	fmt.Fprintf(w, "miras %s: signal received, draining connections\n", name)
	shCtx, cancel := context.WithTimeout(context.Background(), l.shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// every returns a background loop that calls f every d.
func every(d time.Duration, f func()) func(context.Context) {
	return func(ctx context.Context) {
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				f()
			}
		}
	}
}

// members splits a -members value into base URLs: blanks around items and
// trailing slashes go, so "http://a:1/, http://b:2" names the same fleet as
// "http://a:1,http://b:2".
func members(list string) []string {
	out := strings.Split(list, ",")
	for i := range out {
		out[i] = strings.TrimRight(strings.TrimSpace(out[i]), "/")
	}
	return out
}

// topology returns serve's WithShardTopology option. The option is applied
// once to a scratch Server here so that a topology NewServer would refuse
// (-self not in -members, a duplicate or empty member) is a usage error,
// raised with NewServer's own message before serve opens any file.
func topology(self, list string) (opt httpapi.Option, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case string:
			opt, err = nil, usageError{errors.New(r)}
		default:
			panic(r)
		}
	}()
	opt = httpapi.WithShardTopology(strings.TrimRight(strings.TrimSpace(self), "/"), members(list))
	opt(new(httpapi.Server))
	return opt, nil
}

// serve runs the HTTP gym API (internal/httpapi) with the operational
// endpoints beside it (see README "Observability"): /metrics, /healthz,
// /debug/pprof/*, /v1/debug/traces, /v1/debug/timeseries and /debug/dash.
func serve(fs *flag.FlagSet) func(io.Writer) error {
	var l listener
	l.declare(fs)
	list := fs.String("members", "",
		"comma-separated base URLs of every shard process, in ring order — the list route takes (empty: one unsharded process)")
	self := fs.String("self", "", "this process's base URL; must be one of -members")
	maxSessions := fs.Int("max-sessions", 64, "maximum concurrent sessions")
	traceOut := fs.String("trace-out", "", "optional JSONL file receiving span records for every request")
	logLevel := fs.String("log-level", "info", "trace verbosity: debug or info")
	profileDir := fs.String("profile-dir", "",
		"directory for anomaly-triggered pprof captures (slow requests, HPA fallbacks; empty disables)")
	sampleInterval := fs.Duration("sample-interval", 5*time.Second,
		"metrics sampling period for /v1/debug/timeseries and /debug/dash")
	spillDir := fs.String("spill-dir", "",
		"directory for eviction/drain snapshot spill, shared by a fleet that fails over; enables POST /v1/admin/drain and /v1/admin/rehydrate")
	spillSync := fs.Duration("spill-sync-interval", 0,
		"how often to snapshot every live session to -spill-dir without evicting (0 disables); bounds what a crash loses to one interval")
	return func(w io.Writer) (err error) {
		opts := []httpapi.Option{httpapi.WithMaxSessions(*maxSessions), httpapi.WithRequestTimeout(requestTimeout)}
		if (*self == "") != (*list == "") {
			return usagef("-self and -members go together")
		}
		if *list != "" {
			topo, err := topology(*self, *list)
			if err != nil {
				return err
			}
			opts = append(opts, topo)
		}
		if *spillSync > 0 && *spillDir == "" {
			return usagef("-spill-sync-interval requires -spill-dir")
		}
		if *sampleInterval <= 0 {
			return usagef("-sample-interval must be positive")
		}

		rec, err := obs.FileRecorder(*traceOut, *logLevel)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := rec.Close(); err == nil {
				err = cerr
			}
		}()
		var prof *obs.ProfileCapturer
		if *profileDir != "" {
			if prof, err = obs.NewProfileCapturer(obs.ProfileConfig{Dir: *profileDir, Recorder: rec}); err != nil {
				return err
			}
			defer prof.Wait()
		}
		// Requests are real events, so the serving tracer runs in wall-clock
		// mode (unlike the sim-time experiment tracers). Spans land in the
		// ring behind GET /v1/debug/traces and, with -trace-out, in the file.
		tracer := obs.NewTracer(obs.TracerConfig{
			Recorder:  rec,
			Ring:      obs.NewSpanRing(4096),
			Debug:     *logLevel == "debug",
			SlowWall:  slowRequest,
			OnAnomaly: func(span string, _ time.Duration) { prof.Trigger("slow_span_" + span) },
		})
		tsRing := obs.NewTimeSeriesRing(360)
		opts = append(opts, httpapi.WithTracer(tracer), httpapi.WithProfiler(prof), httpapi.WithTimeSeries(tsRing))
		if *spillDir != "" {
			opts = append(opts, httpapi.WithSpillDir(*spillDir))
		}
		srv := httpapi.NewServer(opts...)
		obs.RegisterProcessMetrics(srv.Registry())
		mux := http.NewServeMux()
		mux.Handle("/", srv.Handler())
		obs.MountDebug(mux, srv.Registry())

		loops := []func(context.Context){
			func(ctx context.Context) { tsRing.Run(ctx, srv.Registry(), *sampleInterval) },
			every(sweepInterval, func() { srv.SweepExpired() }),
		}
		if *spillSync > 0 {
			// Best-effort: failures land in miras_spill_errors_total.
			loops = append(loops, every(*spillSync, func() { _, _ = srv.SpillAll() }))
		}
		return l.run(w, "serve", mux, loops...)
	}
}

// route fronts a fleet of serve shards with the consistent-hash router
// (internal/router), which absorbs member failures with retries, circuit
// breakers and /healthz probes. The -members list is the ring: router and
// shards derive ownership from it independently, so it must match every
// shard's -members, order included. The router holds no session state.
func route(fs *flag.FlagSet) func(io.Writer) error {
	var l listener
	l.declare(fs)
	list := fs.String("members", "", "comma-separated shard base URLs in ring order, as every shard's -members (required)")
	failover := fs.Bool("failover", false,
		"on a breaker trip, rehydrate the dead member's spilled sessions on a fallback and re-route its ids (the shards must share -spill-dir)")
	return func(w io.Writer) error {
		if *list == "" {
			return usagef("-members is required")
		}
		rt, err := router.New(members(*list), router.WithResilience(router.Resilience{Failover: *failover}))
		if err != nil {
			return usageError{err}
		}
		return l.run(w, "route", rt.Handler(), rt.RunProbes)
	}
}

// load replays a seeded ReqBench-style trace (internal/loadgen) against
// serve or route, closed-loop at -concurrency, and prints latency
// quantiles, throughput and error rates as JSON. It is a correctness and
// resilience driver; performance numbers come from `go run ./benchmark`.
// Chaos mode (-chaos-kill-pid <pid> -chaos-kill-at 0.4) SIGKILLs the process
// 40% into the trace and replays on into the outage; -error-budget 0.01
// then fails the run if more than 1% of requests failed.
func load(fs *flag.FlagSet) func(io.Writer) error {
	target := fs.String("target", "", "base URL of serve or route (required)")
	requests, sessions, concurrency := count(1000), count(16), count(8)
	fs.Var(&requests, "requests", "trace length")
	fs.Var(&sessions, "sessions", "session population size")
	fs.Var(&concurrency, "concurrency", "closed-loop worker count")
	skew := fs.String("skew", "uniform", "session mix: uniform or zipf")
	seed := fs.Int64("seed", 1, "trace seed")
	out := fs.String("out", "", "optional file for the JSON summary (stdout always gets it)")
	failOn5xx := fs.Bool("fail-on-5xx", false, "exit 1 if any request answered 5xx")
	killPid := fs.Int("chaos-kill-pid", 0, "chaos mode: SIGKILL this process when the dispatch reaches -chaos-kill-at")
	killAt := fs.Float64("chaos-kill-at", 0, "chaos trigger point as a fraction of the trace in (0,1)")
	idempotencyKeys := fs.Bool("idempotency-keys", false,
		"tag step POSTs with unique X-Miras-Idempotency-Key headers so the router may retry them")
	errorBudget := fs.Float64("error-budget", 0, "exit 1 if the client-visible error rate exceeds this bound (e.g. 0.01; 0 disables)")
	return func(w io.Writer) error {
		if *target == "" {
			return usagef("-target is required")
		}
		if (*killPid != 0 || *killAt != 0) && (*killPid <= 0 || *killAt <= 0 || *killAt >= 1) {
			return usagef("chaos mode takes both -chaos-kill-pid > 0 and -chaos-kill-at in (0,1)")
		}
		var killHook func()
		if *killPid > 0 {
			killHook = func() {
				fmt.Fprintf(os.Stderr, "miras load: chaos: SIGKILL pid %d\n", *killPid)
				_ = syscall.Kill(*killPid, syscall.SIGKILL) // a pid already gone is an outage too
			}
		}
		res, err := loadgen.Run(loadgen.Config{
			Target:          *target,
			Requests:        int(requests),
			Sessions:        int(sessions),
			Concurrency:     int(concurrency),
			Skew:            *skew,
			Seed:            *seed,
			ChaosKillAt:     *killAt,
			KillHook:        killHook,
			IdempotencyKeys: *idempotencyKeys,
			ErrorBudget:     *errorBudget,
		})
		if err != nil {
			return err
		}
		summary, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(summary))
		if *out != "" {
			if err := checkpoint.WriteFileAtomic(*out, append(summary, '\n'), 0o644); err != nil {
				return err
			}
		}
		if *failOn5xx && res.Error5xx > 0 {
			return fmt.Errorf("%d requests answered 5xx (statuses %v)", res.Error5xx, res.Statuses)
		}
		if res.WithinErrorBudget != nil && !*res.WithinErrorBudget {
			return fmt.Errorf("error rate %.4f exceeded the %.4f error budget (statuses %v)",
				res.ErrorRate, *errorBudget, res.Statuses)
		}
		return nil
	}
}
