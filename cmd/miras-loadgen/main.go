// Command miras-loadgen replays a ReqBench-style trace against a
// miras-server or miras-router and reports latency quantiles, throughput,
// and error rates as JSON:
//
//	miras-loadgen -target http://127.0.0.1:8080 \
//	  -requests 2000 -sessions 32 -concurrency 16 -skew zipf -seed 7
//
// The trace is deterministic in the seed: a fixed session population and
// a step/info request mix whose session choice is uniform or Zipf-skewed.
// The replay is closed-loop at the configured concurrency. The summary
// goes to stdout (and -out). With -fail-on-5xx the exit status enforces a
// zero-5xx run — the CI contract. It is a correctness and resilience
// driver; performance numbers come from `go run ./benchmark`.
//
// Chaos mode: -chaos-kill-pid <pid> -chaos-kill-at 0.4 SIGKILLs the given
// process when the dispatch loop reaches 40% of the trace, and the replay
// carries on into the outage; the summary's availability_pct and
// error-budget columns measure how well the serving tier absorbed it.
// -idempotency-keys tags step POSTs so a resilient router may retry them;
// -error-budget 0.01 -fail-on-error-budget makes a >1% client-visible
// error rate an exit failure — how the failover demo asserts recovery.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"syscall"
	"time"

	"miras/internal/checkpoint"
	"miras/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "miras-loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	target := flag.String("target", "", "base URL of a miras-server or miras-router (required)")
	requests := flag.Int("requests", 1000, "trace length")
	sessions := flag.Int("sessions", 16, "session population size")
	concurrency := flag.Int("concurrency", 8, "closed-loop worker count")
	skew := flag.String("skew", "uniform", "session mix: uniform or zipf")
	zipfS := flag.Float64("zipf-s", 1.2, "Zipf exponent (> 1)")
	stepShare := flag.Float64("step-share", 0.92, "fraction of ops that are steps (rest are info reads)")
	seed := flag.Int64("seed", 1, "trace seed")
	ensemble := flag.String("ensemble", "toy", "ensemble for created sessions")
	budget := flag.Int("budget", 6, "consumer budget for created sessions")
	windowSec := flag.Float64("window-sec", 10, "control window for created sessions")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	out := flag.String("out", "", "optional file for the JSON summary (stdout always gets it)")
	failOn5xx := flag.Bool("fail-on-5xx", false, "exit non-zero if any request answered 5xx")
	chaosKillPid := flag.Int("chaos-kill-pid", 0,
		"chaos mode: SIGKILL this process id when the dispatch reaches -chaos-kill-at")
	chaosKillAt := flag.Float64("chaos-kill-at", 0,
		"chaos trigger point as a fraction of the trace in (0,1); requires -chaos-kill-pid")
	idempotencyKeys := flag.Bool("idempotency-keys", false,
		"tag step POSTs with unique X-Miras-Idempotency-Key headers so a resilient router may retry them")
	errorBudget := flag.Float64("error-budget", 0,
		"client-visible error-rate bound reported in the summary (e.g. 0.01)")
	failOnErrorBudget := flag.Bool("fail-on-error-budget", false,
		"exit non-zero if the error rate exceeds -error-budget")
	flag.Parse()

	if *target == "" {
		return fmt.Errorf("-target is required")
	}
	if *chaosKillAt > 0 && *chaosKillPid <= 0 {
		return fmt.Errorf("-chaos-kill-at requires -chaos-kill-pid")
	}
	if *failOnErrorBudget && *errorBudget <= 0 {
		return fmt.Errorf("-fail-on-error-budget requires -error-budget")
	}
	var killHook func()
	if *chaosKillAt > 0 {
		pid := *chaosKillPid
		killHook = func() {
			fmt.Fprintf(os.Stderr, "miras-loadgen: chaos: SIGKILL pid %d\n", pid)
			_ = syscall.Kill(pid, syscall.SIGKILL)
		}
	}
	res, err := loadgen.Run(loadgen.Config{
		Target:          *target,
		Requests:        *requests,
		Sessions:        *sessions,
		Concurrency:     *concurrency,
		Skew:            *skew,
		ZipfS:           *zipfS,
		StepShare:       *stepShare,
		Seed:            *seed,
		Ensemble:        *ensemble,
		Budget:          *budget,
		WindowSec:       *windowSec,
		Timeout:         *timeout,
		ChaosKillAt:     *chaosKillAt,
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
	fmt.Println(string(summary))
	if *out != "" {
		if err := checkpoint.WriteFileAtomic(*out, append(summary, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *failOn5xx && res.Error5xx > 0 {
		return fmt.Errorf("%d requests answered 5xx (statuses %v)", res.Error5xx, res.Statuses)
	}
	if *failOnErrorBudget && res.WithinErrorBudget != nil && !*res.WithinErrorBudget {
		return fmt.Errorf("error rate %.4f exceeded the %.4f error budget (statuses %v)",
			res.ErrorRate, *errorBudget, res.Statuses)
	}
	return nil
}
