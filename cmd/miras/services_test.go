package main

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"miras/internal/httpapi"
)

// serviceFlags is every flag each service subcommand declares — the whole
// surface, so a new flag is a deliberate edit here.
var serviceFlags = map[string][]string{
	"serve": {"addr", "log-level", "max-sessions", "members", "profile-dir", "sample-interval",
		"self", "shutdown-timeout", "spill-dir", "spill-sync-interval", "trace-out"},
	"route": {"addr", "failover", "members", "shutdown-timeout"},
	"load": {"chaos-kill-at", "chaos-kill-pid", "concurrency", "error-budget", "fail-on-5xx",
		"idempotency-keys", "out", "requests", "seed", "sessions", "skew", "target"},
}

// TestServiceFlags: each service declares exactly its flags, and -h lists
// them all (exit 2, as for every subcommand).
func TestServiceFlags(t *testing.T) {
	for name, want := range serviceFlags {
		i := slices.IndexFunc(commands, func(c command) bool { return c.name == name })
		if i < 0 {
			t.Fatalf("no %s subcommand", name)
		}
		fs, _ := commands[i].flagSet(&bytes.Buffer{})
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if !slices.Equal(got, want) {
			t.Errorf("%s declares %v, want %v", name, got, want)
		}

		var stderr bytes.Buffer
		if code := run([]string{name, "-h"}, &bytes.Buffer{}, &stderr); code != 2 {
			t.Errorf("%s -h exits %d, want 2", name, code)
		}
		for _, f := range want {
			if !strings.Contains(stderr.String(), "  -"+f+" ") && !strings.Contains(stderr.String(), "  -"+f+"\n") {
				t.Errorf("%s -h does not list -%s:\n%s", name, f, stderr.String())
			}
		}
	}
}

// TestServiceUsageErrors: every refused flag combination exits 2 before the
// subcommand opens a file, starts a goroutine or contacts anything.
func TestServiceUsageErrors(t *testing.T) {
	dir := t.TempDir()
	trace, profiles := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "profiles")
	// The pid is above Linux's pid_max, so a check that let chaos mode
	// through could not kill anything.
	const pid = "999999999"
	load := []string{"load", "-target", "http://127.0.0.1:1", "-requests", "1"}
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"serve", "-self", "http://a:1"}, "-self and -members go together"},
		{[]string{"serve", "-self", "http://c:3", "-members", "http://a:1,http://b:2"}, "httpapi: shard topology"},
		{[]string{"serve", "-self", "http://a:1", "-members", "http://a:1, http://a:1/"}, "httpapi: shard topology"},
		{[]string{"serve", "-trace-out", trace, "-profile-dir", profiles, "-spill-sync-interval", "1s"},
			"-spill-sync-interval requires -spill-dir"},
		{[]string{"route"}, "-members is required"},
		{[]string{"route", "-members", "http://a:1,http://a:1"}, "router:"},
		{[]string{"load"}, "-target is required"},
		{append(load, "-chaos-kill-pid", pid), "chaos mode takes both"},
		{append(load, "-chaos-kill-at", "0.4"), "chaos mode takes both"},
		{append(load, "-chaos-kill-pid", pid, "-chaos-kill-at", "1"), "chaos mode takes both"},
		{append(load, "-chaos-kill-pid", pid, "-chaos-kill-at", "-0.2"), "chaos mode takes both"},
		{[]string{"load", "-target", "http://127.0.0.1:1", "-requests", "-5"}, "must be >= 0"},
	} {
		t.Run(strings.ReplaceAll(strings.Join(tc.args, " "), dir, "$TMP"), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr.String())
			}
		})
	}
	for _, p := range []string{trace, profiles} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("a refused serve created %s (stat: %v)", p, err)
		}
	}
}

// TestLoadAgainstServer runs `miras load` end to end against an in-process
// server and checks the summary fields the demo scripts grep.
func TestLoadAgainstServer(t *testing.T) {
	ts := httptest.NewServer(httpapi.NewServer().Handler())
	defer ts.Close()
	out := filepath.Join(t.TempDir(), "summary.json")
	var stdout, stderr bytes.Buffer
	args := []string{"load", "-target", ts.URL, "-requests", "60", "-sessions", "4", "-concurrency", "2",
		"-skew", "zipf", "-seed", "7", "-idempotency-keys", "-fail-on-5xx", "-error-budget", "0.01", "-out", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	for _, field := range []string{`"errors_5xx": 0`, `"throughput_rps": `, `"within_error_budget": true`, `"requests": 60`} {
		if !strings.Contains(stdout.String(), field) {
			t.Errorf("summary lacks %s:\n%s", field, stdout.String())
		}
	}
	if saved, err := os.ReadFile(out); err != nil || !bytes.Equal(saved, stdout.Bytes()) {
		t.Errorf("-out holds %q (%v), want the printed summary", saved, err)
	}
}
