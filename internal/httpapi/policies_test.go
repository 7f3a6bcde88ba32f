package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"miras/internal/rl"
)

// policyEntries reports the server's policy-table entries, live or awaiting
// their cleanup.
func policyEntries(s *Server) int {
	s.policies.mu.Lock()
	defer s.policies.mu.Unlock()
	return len(s.policies.m)
}

// policyOf returns the snapshot attached to session id.
func policyOf(t *testing.T, s *Server, id string) *rl.PolicySnapshot {
	t.Helper()
	sess := s.sessionByID(id)
	if sess == nil {
		t.Fatalf("no session %s", id)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.policy
}

// awaitNoPolicyEntries runs the collector until every entry of s's policy
// table has been cleaned up, failing after a generous bound.
func awaitNoPolicyEntries(t *testing.T, s *Server) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); policyEntries(s) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d policy entries outlived every session holding them", policyEntries(s))
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

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

// TestAttachInternsByContent is the sharing referee for POST …/policy:
// sessions sent the same bytes hold one snapshot and the table one entry,
// different bytes get their own snapshot, concurrent auto-steps on the
// sharing sessions stay clean (run with -race), and once every session
// holding a snapshot is deleted the collector empties the table.
func TestAttachInternsByContent(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client{t: t, srv: ts}
	a, b, other := c.createSession(6), c.createSession(6), c.createSession(6)
	for _, id := range []string{a.ID, b.ID} {
		if status := c.do("POST", "/v1/sessions/"+id+"/policy", testPolicy(2, 2), nil); status != http.StatusOK {
			t.Fatalf("attach to %s: status %d", id, status)
		}
	}
	if policyOf(t, srv, a.ID) != policyOf(t, srv, b.ID) {
		t.Fatal("sessions attached with the same bytes hold different snapshots")
	}
	if n := policyEntries(srv); n != 1 {
		t.Fatalf("policy table has %d entries after two identical attaches, want 1", n)
	}
	different := testPolicy(2, 2)
	different.NormCount = 3
	if status := c.do("POST", "/v1/sessions/"+other.ID+"/policy", different, nil); status != http.StatusOK {
		t.Fatalf("attach to %s: status %d", other.ID, status)
	}
	if policyOf(t, srv, other.ID) == policyOf(t, srv, a.ID) {
		t.Fatal("different bytes share a snapshot")
	}
	if n := policyEntries(srv); n != 2 {
		t.Fatalf("policy table has %d entries for two distinct policies, want 2", n)
	}

	var wg sync.WaitGroup
	for _, id := range []string{a.ID, b.ID} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/step", "application/json", strings.NewReader("{}"))
				if err != nil {
					t.Error(err)
					return
				}
				var step StepResponse
				err = json.NewDecoder(resp.Body).Decode(&step)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || step.Controller != "policy" {
					t.Errorf("auto-step on %s: status %d controller %q err %v", id, resp.StatusCode, step.Controller, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	for _, id := range []string{a.ID, b.ID, other.ID} {
		if status := c.do("DELETE", "/v1/sessions/"+id, nil, nil); status != http.StatusNoContent {
			t.Fatalf("delete %s: status %d", id, status)
		}
	}
	awaitNoPolicyEntries(t, srv)
}

// TestRestoreAndRehydrateSharePolicy is the sharing referee for the two
// snapshot ingest points. The fixture is a session snapshot carrying a
// policy, captured before policies were interned: restores of it share
// one snapshot and still export the fixture's exact bytes, and rehydrating
// several spilled sessions that carry that policy decodes it once.
func TestRestoreAndRehydrateSharePolicy(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "session_snapshot_policy.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	dir := t.TempDir()
	c, srv, _ := lifecycleClient(t, WithSpillDir(dir))
	const sessions = 4
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = restoreInto(t, c, want).ID
		if status, got := c.rawDo("GET", "/v1/sessions/"+ids[i]+"/snapshot", ""); status != http.StatusOK || got != want {
			t.Fatalf("snapshot after restore: status %d\n got: %s\nwant: %s", status, got, want)
		}
		if policyOf(t, srv, ids[i]) != policyOf(t, srv, ids[0]) {
			t.Fatalf("restore %d holds its own copy of the policy", i)
		}
	}
	if n := policyEntries(srv); n != 1 {
		t.Fatalf("policy table has %d entries after %d restores of one policy, want 1", n, sessions)
	}

	var drained DrainResponse
	if status := c.do("POST", "/v1/admin/drain", nil, &drained); status != http.StatusOK || len(drained.Spilled) != sessions {
		t.Fatalf("drain: status %d spilled %v", status, drained.Spilled)
	}
	cB, srvB, _ := lifecycleClient(t, WithSpillDir(dir))
	var re RehydrateResponse
	if status := cB.do("POST", "/v1/admin/rehydrate", nil, &re); status != http.StatusOK || len(re.Rehydrated) != sessions {
		t.Fatalf("rehydrate: status %d %+v", status, re)
	}
	for _, id := range ids {
		if policyOf(t, srvB, id) != policyOf(t, srvB, ids[0]) {
			t.Fatalf("rehydrated session %s decoded its own copy of the policy", id)
		}
		if status, got := cB.rawDo("GET", "/v1/sessions/"+id+"/snapshot", ""); status != http.StatusOK || got != want {
			t.Fatalf("snapshot after rehydrate: status %d\n got: %s\nwant: %s", status, got, want)
		}
	}
	if n := policyEntries(srvB); n != 1 {
		t.Fatalf("rehydrating server's policy table has %d entries, want 1", n)
	}
}

// TestPolicyIngestErrorOrder pins the answers attach and restore give a bad
// policy: a policy that does not decode is 400 bad_request before the
// session is looked up, a policy that decodes but fails validation is 422
// after it, and a snapshot's own faults outrank its policy's.
func TestPolicyIngestErrorOrder(t *testing.T) {
	c := newClient(t)
	sess := c.createSession(6)
	good, err := json.Marshal(testPolicy(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	negM2 := strings.Replace(string(good), `"norm_m2":[0`, `"norm_m2":[-1`, 1)
	infWeight := strings.Replace(string(good), `"weights":[`, `"weights":[1e999,`, 1)
	restore := func(create, policy string) string {
		return `{"create":` + create + `,"policy":` + policy + `}`
	}
	const toy = `{"ensemble":"toy","budget":6}`
	cases := []struct {
		path, body string
		status     int
		code       ErrorCode
	}{
		{"/v1/sessions/" + sess.ID + "/policy", `5`, 400, CodeBadRequest},
		{"/v1/sessions/" + sess.ID + "/policy", infWeight, 400, CodeBadRequest},
		{"/v1/sessions/" + sess.ID + "/policy", negM2, 422, CodeBadPolicy},
		{"/v1/sessions/" + sess.ID + "/policy", `null`, 422, CodeBadPolicy},
		{"/v1/sessions/nosuch/policy", `5`, 400, CodeBadRequest},
		{"/v1/sessions/nosuch/policy", negM2, 404, CodeSessionNotFound},
		{"/v1/sessions/" + sess.ID + "/restore", restore(toy, `5`), 400, CodeBadRequest},
		{"/v1/sessions/" + sess.ID + "/restore", restore(toy, infWeight), 400, CodeBadRequest},
		{"/v1/sessions/" + sess.ID + "/restore", restore(toy, negM2), 422, CodeBadSnapshot},
		{"/v1/sessions/" + sess.ID + "/restore", restore(toy, string(good)+`,"policy":5`), 400, CodeBadRequest},
		{"/v1/sessions/nosuch/restore", restore(toy, `5`), 400, CodeBadRequest},
		{"/v1/sessions/nosuch/restore", restore(toy, negM2), 404, CodeSessionNotFound},
	}
	for i, tc := range cases {
		status, body := c.rawDo("POST", tc.path, tc.body)
		var env ErrorEnvelope
		if err := json.Unmarshal([]byte(body), &env); err != nil || status != tc.status || env.Error.Code != tc.code {
			t.Errorf("case %d POST %s: status %d body %q, want %d %s", i, tc.path, status, body, tc.status, tc.code)
		}
	}
	status, body := c.rawDo("POST", "/v1/sessions/"+sess.ID+"/restore", restore(`{"ensemble":"nope","budget":6}`, negM2))
	if want := `snapshot create request: unknown ensemble \"nope\"`; status != 422 || !strings.Contains(body, want) {
		t.Errorf("bad create and bad policy: status %d body %q, want 422 naming the create request", status, body)
	}
}

// TestRestoreRepeatedPolicyKey pins what a snapshot repeating its "policy"
// key restores to: SessionSnapshot's pointer field decodes every occurrence
// into one value, so a later partial object amends the earlier policy and a
// null drops what came before it.
func TestRestoreRepeatedPolicyKey(t *testing.T) {
	c := newClient(t)
	sess := c.createSession(6)
	good, err := json.Marshal(testPolicy(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, policies := range []string{
		string(good) + `,"policy":{"norm_count":3}`,
		string(good) + `,"policy":null`,
		`null,"Policy":` + string(good),
	} {
		body := `{"create":{"ensemble":"toy","budget":6,"seed":2},"ops":[],"policy":` + policies + `}`
		var want SessionSnapshot
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := json.NewEncoder(&buf).Encode(want); err != nil {
			t.Fatal(err)
		}
		if status, resp := c.rawDo("POST", "/v1/sessions/"+sess.ID+"/restore", body); status != http.StatusOK {
			t.Fatalf("case %d: restore status %d: %s", i, status, resp)
		}
		if status, got := c.rawDo("GET", "/v1/sessions/"+sess.ID+"/snapshot", ""); status != http.StatusOK || got != buf.String() {
			t.Fatalf("case %d: snapshot status %d\n got: %s\nwant: %s", i, status, got, buf.String())
		}
	}
}
