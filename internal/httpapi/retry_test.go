package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// keyedStep POSTs an allocation of [3,3] to id's step endpoint under key
// ("" sends no key) and returns the status and the raw body.
func (c *client) keyedStep(id, key string) (int, string) {
	c.t.Helper()
	req, err := http.NewRequest("POST", c.srv.URL+"/v1/sessions/"+id+"/step",
		strings.NewReader(`{"allocation":[3,3]}`))
	if err != nil {
		c.t.Fatal(err)
	}
	if key != "" {
		req.Header.Set(IdempotencyKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// info reads session id's wire view.
func (c *client) info(id string) SessionInfo {
	c.t.Helper()
	var info SessionInfo
	if status := c.do("GET", "/v1/sessions/"+id, nil, &info); status != http.StatusOK {
		c.t.Fatalf("info %s: status %d", id, status)
	}
	return info
}

func (c *client) windows(id string) int {
	c.t.Helper()
	return c.info(id).Windows
}

// TestStepKeyAnsweredAcrossSpillAndRehydrate: a repeated step key is
// answered with the recorded bytes and does not step, on the process that
// adopted the session from a spill as on the one that recorded it; a new
// key steps, a reset clears the record, and an over-long key is refused.
func TestStepKeyAnsweredAcrossSpillAndRehydrate(t *testing.T) {
	spill := t.TempDir()
	a, srvA, _ := lifecycleClient(t, WithSpillDir(spill))
	id := a.createSession(6).ID
	status, first := a.keyedStep(id, "k1")
	if status != http.StatusOK {
		t.Fatalf("keyed step: status %d %s", status, first)
	}
	if n, err := srvA.SpillAll(); n != 1 || err != nil {
		t.Fatalf("SpillAll wrote %d (%v), want 1", n, err)
	}

	b, _, _ := lifecycleClient(t, WithSpillDir(spill))
	var re RehydrateResponse
	if status := b.do("POST", "/v1/admin/rehydrate", nil, &re); status != http.StatusOK || len(re.Rehydrated) != 1 {
		t.Fatalf("rehydrate: status %d %+v", status, re)
	}
	if status, again := b.keyedStep(id, "k1"); status != http.StatusOK || again != first {
		t.Fatalf("repeated key after rehydrate: status %d\n got: %s\nwant: %s", status, again, first)
	}
	if w := b.windows(id); w != 1 {
		t.Fatalf("repeated key stepped: windows %d, want 1", w)
	}

	status, second := b.keyedStep(id, "k2")
	if status != http.StatusOK || second == first || b.windows(id) != 2 {
		t.Fatalf("new key: status %d, windows %d, body %s; want a second step", status, b.windows(id), second)
	}
	if status, again := b.keyedStep(id, "k2"); status != http.StatusOK || again != second || b.windows(id) != 2 {
		t.Fatalf("repeated k2: status %d, windows %d", status, b.windows(id))
	}
	if status := b.do("POST", "/v1/sessions/"+id+"/reset", nil, nil); status != http.StatusOK {
		t.Fatalf("reset: status %d", status)
	}
	if status, _ := b.keyedStep(id, "k2"); status != http.StatusOK || b.windows(id) != 3 {
		t.Fatalf("k2 after a reset: status %d, windows %d; want it to step", status, b.windows(id))
	}

	long := strings.Repeat("k", maxIdempotencyKeyBytes+1)
	status, body := b.keyedStep(id, long)
	var env ErrorEnvelope
	if status != http.StatusBadRequest || json.Unmarshal([]byte(body), &env) != nil || env.Error.Code != CodeBadRequest {
		t.Fatalf("over-long key: status %d %s, want 400 bad_request", status, body)
	}
	if status, _ := b.keyedStep(id, long[1:]); status != http.StatusOK || b.windows(id) != 4 {
		t.Fatalf("key at the limit: status %d, windows %d", status, b.windows(id))
	}
}

// TestSpillAllWritesOnlyDirtySessions: a sync pass writes only sessions a
// mutating request touched since their last spill; reads do not dirty a
// session, a failed write leaves it dirty, and a session rehydrated without
// WithDurableSessions is dirty because its store was deleted.
func TestSpillAllWritesOnlyDirtySessions(t *testing.T) {
	spill := t.TempDir()
	c, srv, _ := lifecycleClient(t, WithSpillDir(spill))
	s1, s2 := c.createSession(6).ID, c.createSession(6).ID
	pass := func(want int) {
		t.Helper()
		if n, err := srv.SpillAll(); n != want || err != nil {
			t.Fatalf("SpillAll wrote %d (%v), want %d", n, err, want)
		}
	}
	pass(2)
	pass(0)
	c.windows(s1)
	c.rawDo("GET", "/v1/sessions/"+s1+"/snapshot", "")
	pass(0)
	c.keyedStep(s1, "")
	pass(1)
	policy, err := json.Marshal(testPolicy(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if status, body := c.rawDo("POST", "/v1/sessions/"+s2+"/policy", string(policy)); status != http.StatusOK {
		t.Fatalf("attach: status %d %s", status, body)
	}
	pass(1)

	c.keyedStep(s1, "")
	file := filepath.Join(t.TempDir(), "file") // a spill directory no write can enter
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	srv.spillDir = file
	if n, err := srv.SpillAll(); n != 0 || err == nil {
		t.Fatalf("SpillAll into a file wrote %d (%v), want an error", n, err)
	}
	srv.spillDir = spill
	pass(1)

	for _, durable := range []bool{false, true} {
		opts := []Option{WithSpillDir(spill)}
		if durable {
			opts = append(opts, WithDurableSessions())
		}
		other := NewServer(opts...)
		ts := httptest.NewServer(other.Handler())
		var re RehydrateResponse
		status := (&client{t: t, srv: ts}).do("POST", "/v1/admin/rehydrate", nil, &re)
		ts.Close()
		if status != http.StatusOK || len(re.Rehydrated) != 2 {
			t.Fatalf("rehydrate (durable %v): status %d %+v", durable, status, re)
		}
		want := 2
		if durable {
			want = 0
		}
		if n, err := other.SpillAll(); n != want || err != nil {
			t.Fatalf("first pass after a rehydrate (durable %v) wrote %d (%v), want %d", durable, n, err, want)
		}
	}
}
