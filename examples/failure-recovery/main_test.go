package main

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"miras/internal/invariant"
)

// TestRun executes the example end-to-end with runtime invariants live and,
// on amd64, compares its stdout with testdata/stdout.golden: a regression
// that breaks the example or changes what it prints fails the suite instead
// of rotting silently in documentation. Refresh deliberately with
// `go run ./examples/failure-recovery > examples/failure-recovery/testdata/stdout.golden`.
func TestRun(t *testing.T) {
	invariant.Enable(true)
	defer invariant.Enable(false)
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if want, err := os.ReadFile("testdata/stdout.golden"); err != nil || runtime.GOARCH == "amd64" && out.String() != string(want) {
		t.Errorf("stdout drifted from testdata/stdout.golden (%v)\n--- got:\n%s--- want:\n%s", err, out.String(), want)
	}
}
