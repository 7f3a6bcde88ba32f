package httpapi

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"miras/internal/checkpoint"
)

// restoreInto restores raw into a fresh session on c and returns its info.
func restoreInto(t *testing.T, c *client, raw string) SessionInfo {
	t.Helper()
	target := c.createSession(4)
	var info SessionInfo
	if status := c.do("POST", "/v1/sessions/"+target.ID+"/restore", json.RawMessage(raw), &info); status != http.StatusOK {
		t.Fatalf("restore status %d", status)
	}
	return info
}

// TestRejectedBurstLeavesSessionUnchanged pins that a 422 bad_burst changes
// nothing: the live state stays where it was, and so equals what a snapshot
// of the session rebuilds. A burst that submitted the counts before the bad
// one used to leave the live session ahead of its own op log, so drain →
// rehydrate and failover silently dropped those requests. A burst over the
// burst bound is refused the same way.
func TestRejectedBurstLeavesSessionUnchanged(t *testing.T) {
	for _, burst := range []string{`{"counts":[500,-1,0]}`, `{"counts":[2000000000,0,0]}`} {
		c := newClient(t)
		var before SessionInfo
		if status := c.do("POST", "/v1/sessions", CreateRequest{Ensemble: "msd", Budget: 14}, &before); status != http.StatusCreated {
			t.Fatalf("create status %d", status)
		}
		path := "/v1/sessions/" + before.ID
		status, body := c.rawDo("POST", path+"/burst", burst)
		if status != http.StatusUnprocessableEntity || !strings.Contains(body, string(CodeBadBurst)) {
			t.Fatalf("burst %s: status %d body %q", burst, status, body)
		}
		var after SessionInfo
		if status := c.do("GET", path, nil, &after); status != http.StatusOK {
			t.Fatalf("info status %d", status)
		}
		if !reflect.DeepEqual(after.State, before.State) {
			t.Fatalf("rejected burst %s changed the state: %v → %v", burst, before.State, after.State)
		}
		status, snap := c.rawDo("GET", path+"/snapshot", "")
		if status != http.StatusOK {
			t.Fatalf("snapshot status %d", status)
		}
		if restored := restoreInto(t, c, snap); !reflect.DeepEqual(restored.State, after.State) {
			t.Fatalf("live state %v, but its snapshot restores to %v", after.State, restored.State)
		}
	}
}

// TestRestoreRefusesOversizedBurst pins the burst bound on the other wire
// path to Env.InjectBurst: a client-supplied op log holding a burst over the
// bound is refused with 422 bad_snapshot, and the session is untouched.
func TestRestoreRefusesOversizedBurst(t *testing.T) {
	c := newClient(t)
	target := c.createSession(4)
	path := "/v1/sessions/" + target.ID
	snap := `{"create":{"ensemble":"toy","budget":4},"ops":[{"kind":"burst","counts":[2000000000]}]}`
	status, body := c.rawDo("POST", path+"/restore", snap)
	if status != http.StatusUnprocessableEntity || !strings.Contains(body, string(CodeBadSnapshot)) {
		t.Fatalf("restore of an oversized burst: status %d body %q", status, body)
	}
	var after SessionInfo
	if status := c.do("GET", path, nil, &after); status != http.StatusOK {
		t.Fatalf("info status %d", status)
	}
	if !reflect.DeepEqual(after, target) {
		t.Fatalf("refused restore changed the session:\nbefore %+v\nafter  %+v", target, after)
	}
}

// TestSnapshotFixtureRestoresByteIdentical restores a snapshot captured from
// the previous server (a failure-aware toy session that saw steps, bursts, a
// reset and a two-spec fault plan) through both restore paths — POST
// …/restore, and rehydrate from a spill store — and requires GET …/snapshot
// to return the fixture's exact bytes: spills written before the op log
// moved into env rehydrate unchanged.
func TestSnapshotFixtureRestoresByteIdentical(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "session_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	// What the capturing session reported for itself.
	check := func(path string, info SessionInfo) {
		t.Helper()
		if info.Windows != 4 || info.FaultSpecs != 2 || !reflect.DeepEqual(info.State, []float64{2, 2, 1, 4}) {
			t.Fatalf("%s: windows=%d fault_specs=%d state=%v, want 4, 2, [2 2 1 4]",
				path, info.Windows, info.FaultSpecs, info.State)
		}
	}

	dir := t.TempDir()
	c, srv, _ := lifecycleClient(t, WithSpillDir(dir))
	restored := restoreInto(t, c, want)
	check("restore", restored)
	kinds := map[string]bool{}
	for _, op := range srv.sessionByID(restored.ID).env.Ops() {
		kinds[op.Kind] = true
	}
	if len(kinds) != 4 {
		t.Fatalf("restored env recorded op kinds %v, want all four", kinds)
	}
	if status, got := c.rawDo("GET", "/v1/sessions/"+restored.ID+"/snapshot", ""); status != http.StatusOK || got != want {
		t.Fatalf("snapshot after restore: status %d\n got: %s\nwant: %s", status, got, want)
	}

	// The same bytes as a spill file, as the previous server wrote them.
	st, err := checkpoint.NewStore(filepath.Join(dir, "spilled"), spillKeep)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(1, json.RawMessage(raw)); err != nil {
		t.Fatal(err)
	}
	var rh RehydrateResponse
	if status := c.do("POST", "/v1/admin/rehydrate", nil, &rh); status != http.StatusOK || len(rh.Rehydrated) != 1 {
		t.Fatalf("rehydrate: status %d %+v", status, rh)
	}
	var info SessionInfo
	if status := c.do("GET", "/v1/sessions/spilled", nil, &info); status != http.StatusOK {
		t.Fatalf("rehydrated info status %d", status)
	}
	check("rehydrate", info)
	if status, got := c.rawDo("GET", "/v1/sessions/spilled/snapshot", ""); status != http.StatusOK || got != want {
		t.Fatalf("snapshot after rehydrate: status %d\n got: %s\nwant: %s", status, got, want)
	}
}
