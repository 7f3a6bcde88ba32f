package httpapi

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"miras/internal/env"
	"miras/internal/faults"
)

// crashPlan kills a consumer of either toy service every 10 s on average.
var crashPlan = faults.Plan{Specs: []faults.Spec{
	{Kind: faults.Crash, Service: faults.AllServices, StartSec: 0, MTTFSec: 10},
}}

// faultSeries reads the session's miras_faults_total and
// miras_consumers_crashed values from the server's exposition.
func faultSeries(t *testing.T, srv *Server, id string) (faultsTotal, crashed uint64) {
	t.Helper()
	lines := strings.Split(scrape(t, srv), "\n")
	read := func(name string) uint64 {
		prefix := fmt.Sprintf("%s{session=%q} ", name, id)
		for _, line := range lines {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return n
			}
		}
		t.Fatalf("no %s series for session %q", name, id)
		return 0
	}
	return read("miras_faults_total"), read("miras_consumers_crashed")
}

// stepN steps sess n windows with a fixed allocation.
func stepN(t *testing.T, sess *session, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		step(t, sess, []int{3, 3}, "")
	}
}

// TestFailedRestoreCountsNoFaults: a snapshot whose op log arms a crash
// plan and steps through it, then fails to build, leaves the session it
// targets and both of its fault series as they were; the replay's crashes
// never happened to the session.
func TestFailedRestoreCountsNoFaults(t *testing.T) {
	srv := NewServer()
	src := newCore(t, srv, 6)
	if _, err := src.ArmFaults(crashPlan); err != nil {
		t.Fatal(err)
	}
	stepN(t, src, 10)
	snap := src.Snapshot()
	if src.Info().Crashed == 0 {
		t.Fatal("the op log's crash plan killed nothing over 10 windows at MTTF=10s")
	}

	overBudget := snap
	overBudget.Ops = append(slices.Clone(snap.Ops), env.Op{Kind: "step", Alloc: []int{9, 9}})
	wrongWidth := snap
	wrongWidth.Policy = testPolicy(3, 2)
	dst := newCore(t, srv, 6)
	for _, tc := range []struct {
		name string
		snap SessionSnapshot
	}{{"over-budget step", overBudget}, {"policy of the wrong width", wrongWidth}} {
		if _, err := buildFromSnapshot(tc.snap); codeOf(err) != CodeBadSnapshot {
			t.Fatalf("%s: build %v, want %s", tc.name, err, CodeBadSnapshot)
		}
		if info := dst.Info(); info.Crashed != 0 || info.Windows != 0 {
			t.Fatalf("%s: failed restore changed the session: crashed=%d windows=%d", tc.name, info.Crashed, info.Windows)
		}
		if f, cr := faultSeries(t, srv, dst.id); f != 0 || cr != 0 {
			t.Fatalf("%s: failed restore moved the fault series to (%d, %d), want (0, 0)", tc.name, f, cr)
		}
	}
}

// TestRefusedAdmitCountsNoFaults: an admit refused because the id is live
// adds nothing to the live session's fault series, even when its build
// stepped an emulator through crashes.
func TestRefusedAdmitCountsNoFaults(t *testing.T) {
	srv := NewServer()
	id := newCore(t, srv, 6).id
	_, err := srv.admit(id, func() (*session, error) {
		sess, err := newSession(CreateRequest{Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: 5, Faults: &crashPlan})
		if err != nil {
			return nil, err
		}
		for k := 0; k < 10; k++ {
			if _, err := sess.env.Step([]int{3, 3}); err != nil {
				return nil, err
			}
		}
		if sess.env.Cluster().FaultsInjected() == 0 {
			t.Error("the build's crash plan injected nothing")
		}
		return sess, nil
	})
	if codeOf(err) != CodeBadRequest {
		t.Fatalf("duplicate admit: %v, want bad_request", err)
	}
	if f, cr := faultSeries(t, srv, id); f != 0 || cr != 0 {
		t.Fatalf("refused admit moved the live session's fault series to (%d, %d)", f, cr)
	}
}

// TestFaultSeriesMatchEmulator: a session's two fault series equal its
// emulator's fault counts, and miras_consumers_crashed equals the crashed
// count the session reports — after stepping under a crash plan armed at
// creation, after a successful restore (the prior value plus the replayed
// counts), after more steps, and on a second process that rehydrated the
// session from its spill.
func TestFaultSeriesMatchEmulator(t *testing.T) {
	spill := t.TempDir()
	srvA := NewServer(WithSpillDir(spill))
	sess := admitted(t, srvA, CreateRequest{Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: 5, Faults: &crashPlan})
	// check compares the series against base plus the live emulator's
	// counts and the session's reported crashed count.
	check := func(stage string, srv *Server, sess *session, baseFaults, baseCrashed uint64) {
		t.Helper()
		injected, crashes := sess.env.Cluster().FaultsInjected(), sess.env.Cluster().Failures()
		f, cr := faultSeries(t, srv, sess.id)
		if f != baseFaults+injected || cr != baseCrashed+crashes {
			t.Fatalf("%s: series (%d, %d), want (%d+%d, %d+%d)",
				stage, f, cr, baseFaults, injected, baseCrashed, crashes)
		}
		if got := sess.Info().Crashed; cr != baseCrashed+got {
			t.Fatalf("%s: miras_consumers_crashed %d, want %d+%d (SessionInfo.crashed)", stage, cr, baseCrashed, got)
		}
	}

	stepN(t, sess, 10)
	if sess.Info().Crashed == 0 {
		t.Fatal("the crash plan killed nothing over 10 windows at MTTF=10s")
	}
	check("stepped", srvA, sess, 0, 0)

	priorFaults, priorCrashed := faultSeries(t, srvA, sess.id)
	built, err := buildFromSnapshot(sess.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	sess.Restore(built)
	check("restored", srvA, sess, priorFaults, priorCrashed)
	stepN(t, sess, 5)
	check("stepped after restore", srvA, sess, priorFaults, priorCrashed)

	if n, err := srvA.SpillAll(); n != 1 || err != nil {
		t.Fatalf("SpillAll wrote %d (%v), want 1", n, err)
	}
	srvB := NewServer(WithSpillDir(spill))
	if err := srvB.rehydrateOne(sess.id); err != nil {
		t.Fatal(err)
	}
	adopted := srvB.sessionByID(sess.id)
	check("rehydrated", srvB, adopted, 0, 0)
	stepN(t, adopted, 5)
	check("stepped after rehydrate", srvB, adopted, 0, 0)
}
