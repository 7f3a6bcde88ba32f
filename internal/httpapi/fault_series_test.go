package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// stepN steps session id n windows with a fixed allocation.
func (c *client) stepN(id string, n int) {
	c.t.Helper()
	for k := 0; k < n; k++ {
		if status := c.do("POST", "/v1/sessions/"+id+"/step",
			StepRequest{Allocation: []int{3, 3}}, nil); status != http.StatusOK {
			c.t.Fatalf("step %d: status %d", k, status)
		}
	}
}

// TestFailedRestoreCountsNoFaults: a restore whose op log arms a crash plan
// and steps through it, then fails, answers 422 and leaves the session and
// both of its fault series as they were; the replay's crashes never
// happened to the session.
func TestFailedRestoreCountsNoFaults(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client{t: t, srv: ts}

	src := c.createSession(6).ID
	if status := c.do("POST", "/v1/sessions/"+src+"/faults", crashPlan, nil); status != http.StatusOK {
		t.Fatalf("faults status %d", status)
	}
	c.stepN(src, 10)
	var snap SessionSnapshot
	if status := c.do("GET", "/v1/sessions/"+src+"/snapshot", nil, &snap); status != http.StatusOK {
		t.Fatalf("snapshot status %d", status)
	}
	if c.info(src).Crashed == 0 {
		t.Fatal("the op log's crash plan killed nothing over 10 windows at MTTF=10s")
	}

	overBudget := snap
	overBudget.Ops = append(slices.Clone(snap.Ops), env.Op{Kind: "step", Alloc: []int{9, 9}})
	wrongWidth := snap
	wrongWidth.Policy = testPolicy(3, 2)
	dst := c.createSession(6).ID
	for _, tc := range []struct {
		name string
		snap SessionSnapshot
	}{{"over-budget step", overBudget}, {"policy of the wrong width", wrongWidth}} {
		body, err := json.Marshal(tc.snap)
		if err != nil {
			t.Fatal(err)
		}
		if status, resp := c.rawDo("POST", "/v1/sessions/"+dst+"/restore", string(body)); status != http.StatusUnprocessableEntity ||
			!strings.Contains(resp, string(CodeBadSnapshot)) {
			t.Fatalf("%s: restore answered %d %s, want 422 %s", tc.name, status, resp, CodeBadSnapshot)
		}
		if info := c.info(dst); info.Crashed != 0 || info.Windows != 0 {
			t.Fatalf("%s: failed restore changed the session: crashed=%d windows=%d", tc.name, info.Crashed, info.Windows)
		}
		if f, cr := faultSeries(t, srv, dst); f != 0 || cr != 0 {
			t.Fatalf("%s: failed restore moved the fault series to (%d, %d), want (0, 0)", tc.name, f, cr)
		}
	}
}

// TestRefusedAdmitCountsNoFaults: an admit refused because the id is live
// adds nothing to the live session's fault series, even when its build
// stepped an emulator through crashes.
func TestRefusedAdmitCountsNoFaults(t *testing.T) {
	c, srv, _ := lifecycleClient(t)
	id := c.createSession(6).ID
	_, code, err := srv.admit(id, func() (*session, ErrorCode, error) {
		req := CreateRequest{Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: 5, Faults: &crashPlan}
		e, code, err := srv.buildSystem(req)
		if err != nil {
			return nil, code, err
		}
		for k := 0; k < 10; k++ {
			if _, err := e.Step([]int{3, 3}); err != nil {
				return nil, CodeInternal, err
			}
		}
		if injected, _ := e.Cluster().FaultCounts(); injected == 0 {
			t.Error("the build's crash plan injected nothing")
		}
		return &session{env: e, create: req}, "", nil
	})
	if err == nil || code != CodeBadRequest {
		t.Fatalf("duplicate admit = (%q, %v), want bad_request", code, err)
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
	a, srvA, _ := lifecycleClient(t, WithSpillDir(spill))
	var created SessionInfo
	if status := a.do("POST", "/v1/sessions", CreateRequest{
		Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: 5, Faults: &crashPlan,
	}, &created); status != http.StatusCreated {
		t.Fatalf("create status %d", status)
	}
	id := created.ID
	// check compares the series against base plus the live emulator's
	// counts and the session's reported crashed count.
	check := func(stage string, c *client, srv *Server, baseFaults, baseCrashed uint64) {
		t.Helper()
		sess := srv.sessionByID(id)
		sess.mu.Lock()
		injected, crashes := sess.env.Cluster().FaultCounts()
		sess.mu.Unlock()
		f, cr := faultSeries(t, srv, id)
		if f != baseFaults+injected || cr != baseCrashed+crashes {
			t.Fatalf("%s: series (%d, %d), want (%d+%d, %d+%d)",
				stage, f, cr, baseFaults, injected, baseCrashed, crashes)
		}
		if got := c.info(id).Crashed; cr != baseCrashed+got {
			t.Fatalf("%s: miras_consumers_crashed %d, want %d+%d (SessionInfo.crashed)", stage, cr, baseCrashed, got)
		}
	}

	a.stepN(id, 10)
	if a.info(id).Crashed == 0 {
		t.Fatal("the crash plan killed nothing over 10 windows at MTTF=10s")
	}
	check("stepped", a, srvA, 0, 0)

	var snap SessionSnapshot
	if status := a.do("GET", "/v1/sessions/"+id+"/snapshot", nil, &snap); status != http.StatusOK {
		t.Fatalf("snapshot status %d", status)
	}
	priorFaults, priorCrashed := faultSeries(t, srvA, id)
	if status := a.do("POST", "/v1/sessions/"+id+"/restore", snap, nil); status != http.StatusOK {
		t.Fatalf("restore status %d", status)
	}
	check("restored", a, srvA, priorFaults, priorCrashed)
	a.stepN(id, 5)
	check("stepped after restore", a, srvA, priorFaults, priorCrashed)

	if n, err := srvA.SpillAll(); n != 1 || err != nil {
		t.Fatalf("SpillAll wrote %d (%v), want 1", n, err)
	}
	b, srvB, _ := lifecycleClient(t, WithSpillDir(spill))
	var re RehydrateResponse
	if status := b.do("POST", "/v1/admin/rehydrate", nil, &re); status != http.StatusOK || len(re.Rehydrated) != 1 {
		t.Fatalf("rehydrate: status %d %+v", status, re)
	}
	check("rehydrated", b, srvB, 0, 0)
	b.stepN(id, 5)
	check("stepped after rehydrate", b, srvB, 0, 0)
}
