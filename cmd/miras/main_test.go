package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseList("1, 2,3", strconv.Atoi)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != 2 {
		t.Fatalf("parseList=%v", got)
	}
	if _, err := parseList("1,x", strconv.Atoi); err == nil {
		t.Fatal("expected error")
	}
	empty, err := parseList("  ", strconv.Atoi)
	if err != nil || empty != nil {
		t.Fatalf("blank spec: %v, %v", empty, err)
	}
}

func TestParseInt64s(t *testing.T) {
	seeds, err := parseList("7,8", func(v string) (int64, error) { return strconv.ParseInt(v, 10, 64) })
	if err != nil || len(seeds) != 2 || seeds[0] != 7 || seeds[1] != 8 {
		t.Fatalf("int64 list=%v, %v", seeds, err)
	}
}

func TestParseList(t *testing.T) {
	algs, _ := parseList(" stream,,heft ", func(v string) (string, error) { return v, nil })
	if len(algs) != 2 || algs[0] != "stream" || algs[1] != "heft" {
		t.Fatalf("string list=%q", algs)
	}
}

func TestParseBurst(t *testing.T) {
	got, err := parseBurst("300, 200,300", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 300 || got[1] != 200 || got[2] != 300 {
		t.Fatalf("parseBurst=%v", got)
	}
	if _, err := parseBurst("1,2", 3); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := parseBurst("1,x,3", 3); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := parseBurst("1,-2,3", 3); err == nil {
		t.Fatal("expected negativity error")
	}
}

// TestSubcommands pins the front door: every experiment subcommand carries
// the shared flag block with its historical defaults (the service
// subcommands, pinned by TestServiceFlags, carry none of it), usage errors
// exit 2, and the cheap subcommands run end to end in-process.
func TestSubcommands(t *testing.T) {
	// Per-subcommand -ensemble / -scale defaults; dot has no -scale.
	defaults := map[string][2]string{
		"modeleval": {"msd", "quick"},
		"train":     {"msd", "quick"},
		"compare":   {"msd", "quick"},
		"figures":   {"both", "quick"},
		"sweep":     {"msd", "medium"},
		"chaos":     {"msd", "quick"},
		"replay":    {"msd", "medium"},
		"selfcheck": {"msd", "quick"},
		"dot":       {"msd", ""},
	}
	shared := map[string]string{
		"seed": "0", "out": "results", "trace-out": "", "log-level": "info",
		"iterations": "0", "steps-per-iter": "0", "policy-episodes": "0",
	}
	if len(commands) != len(defaults)+len(serviceFlags) {
		t.Fatalf("%d subcommands, tables cover %d", len(commands), len(defaults)+len(serviceFlags))
	}
	for i := range commands {
		cmd := &commands[i]
		fs, _ := cmd.flagSet(&bytes.Buffer{})
		want, ok := defaults[cmd.name]
		if _, service := serviceFlags[cmd.name]; service {
			if fs.Lookup("ensemble") != nil {
				t.Errorf("%s declares the experiment block", cmd.name)
			}
			continue
		}
		if !ok {
			t.Fatalf("subcommand %s missing from the defaults table", cmd.name)
		}
		check := func(name, def string) {
			if f := fs.Lookup(name); f == nil || f.DefValue != def {
				t.Errorf("%s -%s: got %+v, want default %q", cmd.name, name, f, def)
			}
		}
		check("ensemble", want[0])
		if want[1] == "" {
			if fs.Lookup("scale") != nil {
				t.Errorf("%s declares -scale", cmd.name)
			}
			continue
		}
		check("scale", want[1])
		for name, def := range shared {
			check(name, def)
		}
	}

	out := t.TempDir()
	for _, tc := range []struct {
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{nil, 2, "", "subcommands:"},
		{[]string{"-h"}, 2, "", "subcommands:"},
		{[]string{"bench"}, 2, "", `unknown subcommand "bench"`},
		{[]string{"train", "-iterations", "-1"}, 2, "", "usage: miras train"},
		{[]string{"compare", "-steps-per-iter", "-5"}, 2, "", "must be >= 0"},
		{[]string{"figures", "-policy-episodes", "x"}, 2, "", "usage: miras figures"},
		{[]string{"sweep", "-scale", "huge"}, 1, "", "unknown scale"},
		{[]string{"dot", "-ensemble", "toy"}, 0, "digraph", ""},
		{[]string{"selfcheck"}, 0, "regime=queue_drop", ""},
		{[]string{"chaos", "-algorithms", "stream", "-windows", "2", "-out", out}, 0, "chaos-msd-summary.csv", ""},
	} {
		name := strings.ReplaceAll(strings.Join(append([]string{"miras"}, tc.args...), " "), out, "$TMP")
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr.String())
			}
		})
	}
}
