// Command miras-server exposes the emulated microservice workflow
// environment over HTTP (see internal/httpapi for the API), letting agents
// written in any language train against it:
//
//	miras-server -addr :8080 &
//	curl -X POST localhost:8080/v1/sessions \
//	  -d '{"ensemble":"msd","budget":14}'
//	curl -X POST localhost:8080/v1/sessions/s1/step \
//	  -d '{"allocation":[4,4,3,3]}'
//
// Operational endpoints (see README "Observability"):
//
//	GET /metrics              Prometheus text-format metrics
//	GET /healthz              liveness probe
//	    /debug/pprof/*        runtime profiling
//	GET /v1/debug/traces      recent request spans (JSON)
//	GET /v1/debug/timeseries  sampled metrics window (JSON)
//	GET /debug/dash           HTML+SVG sparkline dashboard
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests up to -shutdown-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"miras/internal/httpapi"
	"miras/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "miras-server:", err)
		os.Exit(1)
	}
}

// newServer turns NewServer's refusal of a topology it must not serve
// (-shard-self missing from -shard-peers, a duplicate or empty peer) from a
// panic into the error the CLI prints. Only the configuration panics (plain
// strings) are converted; anything else is a bug and keeps its stack.
func newServer(opts []httpapi.Option) (srv *httpapi.Server, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case string:
			err = errors.New(r)
		default:
			panic(r)
		}
	}()
	return httpapi.NewServer(opts...), nil
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	maxSessions := flag.Int("max-sessions", 64, "maximum concurrent sessions")
	shutdownTimeout := flag.Duration("shutdown-timeout", 5*time.Second,
		"grace period for draining requests on SIGINT/SIGTERM")
	maxBodyBytes := flag.Int64("max-body-bytes", 64<<20,
		"request body size cap; oversized bodies get 413 body_too_large (0 disables)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second,
		"per-request API deadline; slower requests get 408 request_timeout (0 disables)")
	traceOut := flag.String("trace-out", "", "optional JSONL file receiving span records for every request")
	logLevel := flag.String("log-level", "info", "trace verbosity: debug or info")
	profileDir := flag.String("profile-dir", "",
		"directory for anomaly-triggered pprof captures (slow requests, HPA fallbacks; empty disables)")
	sampleInterval := flag.Duration("sample-interval", 5*time.Second,
		"metrics sampling period for /v1/debug/timeseries and /debug/dash")
	slowRequest := flag.Duration("slow-request", 10*time.Second,
		"wall-clock span duration that counts as an anomaly and triggers a profile capture (0 disables)")
	shards := flag.Int("shards", 8, "in-process session shard count")
	shardSelf := flag.String("shard-self", "",
		"this process's base URL in a multi-process shard topology (must appear in -shard-peers)")
	shardPeers := flag.String("shard-peers", "",
		"comma-separated base URLs of every shard process (the ring member list; must match the router's -shards)")
	spillDir := flag.String("spill-dir", "",
		"directory for eviction/drain snapshot spill; enables POST /v1/admin/drain and /v1/admin/rehydrate")
	sweepInterval := flag.Duration("sweep-interval", 30*time.Second,
		"how often to evict sessions past their TTL or idle bound (0 disables the sweeper)")
	spillSyncInterval := flag.Duration("spill-sync-interval", 0,
		"how often to snapshot every live session to the spill store without evicting (requires -spill-dir; 0 disables) — bounds how much history a crashed-without-drain process loses to at most one interval, so a router failover can rehydrate near-current sessions on a fallback")
	flag.Parse()

	rec, err := obs.FileRecorder(*traceOut, *logLevel)
	if err != nil {
		return err
	}
	defer rec.Close()

	var prof *obs.ProfileCapturer
	if *profileDir != "" {
		prof, err = obs.NewProfileCapturer(obs.ProfileConfig{Dir: *profileDir, Recorder: rec})
		if err != nil {
			return err
		}
		defer prof.Wait()
	}

	// Requests are real events, so the serving tracer runs in wall-clock
	// mode (unlike the sim-time experiment tracers). Spans land in the ring
	// behind GET /v1/debug/traces and, with -trace-out, in the JSONL file.
	tracer := obs.NewTracer(obs.TracerConfig{
		Recorder: rec,
		Ring:     obs.NewSpanRing(4096),
		Debug:    *logLevel == "debug",
		SlowWall: *slowRequest,
		OnAnomaly: func(span string, wall time.Duration) {
			prof.Trigger("slow_span_" + span)
		},
	})
	tsRing := obs.NewTimeSeriesRing(360)

	opts := []httpapi.Option{
		httpapi.WithMaxSessions(*maxSessions),
		httpapi.WithMaxBodyBytes(*maxBodyBytes),
		httpapi.WithRequestTimeout(*requestTimeout),
		httpapi.WithTracer(tracer),
		httpapi.WithProfiler(prof),
		httpapi.WithTimeSeries(tsRing),
		httpapi.WithShards(*shards),
	}
	if *spillDir != "" {
		opts = append(opts, httpapi.WithSpillDir(*spillDir))
	}
	if *shardSelf != "" || *shardPeers != "" {
		if *shardSelf == "" || *shardPeers == "" {
			return errors.New("-shard-self and -shard-peers must be set together")
		}
		peers := strings.Split(*shardPeers, ",")
		for i := range peers {
			peers[i] = strings.TrimRight(strings.TrimSpace(peers[i]), "/")
		}
		self := strings.TrimRight(strings.TrimSpace(*shardSelf), "/")
		opts = append(opts, httpapi.WithShardTopology(self, peers))
	}
	srv, err := newServer(opts)
	if err != nil {
		return err
	}
	obs.RegisterProcessMetrics(srv.Registry())

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	obs.MountDebug(mux, srv.Registry())

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		// Generous write timeout: pprof CPU profiles block for their
		// ?seconds= duration (30 s default) before writing.
		WriteTimeout: 90 * time.Second,
		IdleTimeout:  120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	go tsRing.Run(ctx, srv.Registry(), *sampleInterval)

	if *sweepInterval > 0 {
		go func() {
			ticker := time.NewTicker(*sweepInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					srv.SweepExpired()
				}
			}
		}()
	}

	if *spillSyncInterval > 0 {
		if *spillDir == "" {
			return errors.New("-spill-sync-interval requires -spill-dir")
		}
		go func() {
			ticker := time.NewTicker(*spillSyncInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					// Best-effort: failures land in miras_spill_errors_total.
					_, _ = srv.SpillAll()
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()
	fmt.Printf("miras-server listening on %s (/metrics, /healthz, /debug/pprof/, /debug/dash)\n", *addr)

	select {
	case err := <-errc:
		// ListenAndServe never returns nil; surface bind failures etc.
		return err
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		fmt.Println("miras-server: signal received, draining connections")
		shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := httpServer.Shutdown(shCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
