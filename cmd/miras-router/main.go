// Command miras-router fronts a fleet of miras-server shard processes
// with a consistent-hash ring: it mints session ids, forwards every
// /v1/sessions/{id}/* request to the process that owns the id, merges
// GET /v1/sessions pages across the fleet, and merges every shard's
// /metrics into one exposition page with a shard label.
//
//	miras-server -addr 127.0.0.1:8081 \
//	  -shard-self http://127.0.0.1:8081 \
//	  -shard-peers http://127.0.0.1:8081,http://127.0.0.1:8082 &
//	miras-server -addr 127.0.0.1:8082 \
//	  -shard-self http://127.0.0.1:8082 \
//	  -shard-peers http://127.0.0.1:8081,http://127.0.0.1:8082 &
//	miras-router -addr 127.0.0.1:8080 \
//	  -shards http://127.0.0.1:8081,http://127.0.0.1:8082
//
// The -shards list IS the ring: it must match the -shard-peers list the
// shard processes were started with, order included — both sides derive
// session ownership from that list independently, with no gossip. The
// router holds no session state; run as many replicas as you like.
//
// The router shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests up to -shutdown-timeout.
//
// Resilience (each mechanism off at its flag's zero value): -retries
// enables bounded retries with exponential backoff + full jitter for
// idempotent requests (GET/DELETE, POSTs with X-Miras-Idempotency-Key),
// honoring Retry-After; -breaker-threshold arms a per-member circuit
// breaker (closed→open→half-open) fed by transport failures and the
// -probe-interval /healthz probe loop; -request-timeout bounds a whole
// forwarded request (all attempts) and is propagated downstream as
// X-Miras-Deadline-Ms so shards abandon work the client gave up on;
// -failover reacts to a breaker trip by rehydrating, on a healthy fallback,
// the spilled sessions of every home the dead member served (the fleet must
// share -spill-dir) and reassigning those homes in the routing table.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"miras/internal/router"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "miras-router:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	shards := flag.String("shards", "",
		"comma-separated shard base URLs (the ring member list; must match the shards' -shard-peers)")
	upstreamTimeout := flag.Duration("upstream-timeout", 30*time.Second,
		"per-attempt deadline for reaching a shard")
	requestTimeout := flag.Duration("request-timeout", 0,
		"whole-request budget across all attempts, propagated to shards as X-Miras-Deadline-Ms (0 = per-attempt timeout only)")
	connectTimeout := flag.Duration("connect-timeout", 5*time.Second,
		"TCP connect deadline for shard dials")
	maxIdlePerHost := flag.Int("max-idle-conns-per-host", 32,
		"idle connections kept per shard")
	retries := flag.Int("retries", 0,
		"extra attempts for idempotent requests after a failure (0 = no retries)")
	breakerThreshold := flag.Int("breaker-threshold", 0,
		"consecutive transport failures that trip a member's circuit breaker (0 = no breakers)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second,
		"how long a tripped breaker stays open before a half-open trial")
	probeInterval := flag.Duration("probe-interval", 0,
		"active /healthz probe period feeding the breakers (0 = no probing; requires -breaker-threshold)")
	failover := flag.Bool("failover", false,
		"on breaker trip, rehydrate the dead member's spilled sessions on a fallback and re-route its ids (requires -breaker-threshold and a shared -spill-dir on the shards)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 5*time.Second,
		"grace period for draining requests on SIGINT/SIGTERM")
	flag.Parse()

	if *shards == "" {
		return errors.New("-shards is required (comma-separated shard base URLs)")
	}
	if *failover && *breakerThreshold <= 0 {
		return errors.New("-failover requires -breaker-threshold (a breaker trip is the failover trigger)")
	}
	if *probeInterval > 0 && *breakerThreshold <= 0 {
		return errors.New("-probe-interval requires -breaker-threshold (probes feed the breakers)")
	}
	members := strings.Split(*shards, ",")
	for i := range members {
		members[i] = strings.TrimRight(strings.TrimSpace(members[i]), "/")
	}

	transport := &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   *connectTimeout,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:        *maxIdlePerHost * len(members),
		MaxIdleConnsPerHost: *maxIdlePerHost,
		IdleConnTimeout:     90 * time.Second,
	}
	rt, err := router.New(members,
		router.WithClient(&http.Client{Timeout: *upstreamTimeout, Transport: transport}),
		router.WithResilience(router.Resilience{
			MaxRetries:       *retries,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
			ProbeInterval:    *probeInterval,
			RequestTimeout:   *requestTimeout,
			Failover:         *failover,
		}))
	if err != nil {
		return err
	}

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	go rt.RunProbes(ctx)

	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()
	fmt.Printf("miras-router listening on %s over %d shard(s)\n", *addr, len(members))

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("miras-router: draining…")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
