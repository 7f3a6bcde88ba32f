package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
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

// TestStepKeyAnsweredAcrossSpillAndRehydrate walks the keyed-step record: a
// keyed step sets it, a repeated key is answered with the recorded bytes
// and does not step — on the process that adopted the session from a spill
// as on the one that recorded it, and after a restore — a new key sets it
// anew, and a reset clears it.
func TestStepKeyAnsweredAcrossSpillAndRehydrate(t *testing.T) {
	spill := t.TempDir()
	srvA := NewServer(WithSpillDir(spill))
	sess := newCore(t, srvA, 6)
	first := step(t, sess, []int{3, 3}, "k1")
	if n, err := srvA.SpillAll(); n != 1 || err != nil {
		t.Fatalf("SpillAll wrote %d (%v), want 1", n, err)
	}
	srvB := NewServer(WithSpillDir(spill))
	if err := srvB.rehydrateOne(sess.id); err != nil {
		t.Fatal(err)
	}
	sess = srvB.sessionByID(sess.id)
	windows := func(want int, stage string) {
		t.Helper()
		if w := sess.env.Window(); w != want {
			t.Fatalf("%s: windows %d, want %d", stage, w, want)
		}
	}
	if again := step(t, sess, []int{3, 3}, "k1"); again != first {
		t.Fatalf("repeated key after rehydrate:\n got: %s\nwant: %s", again, first)
	}
	windows(1, "repeated key after rehydrate")

	second := step(t, sess, []int{3, 3}, "k2")
	windows(2, "new key")
	if second == first {
		t.Fatal("a new key answered the old record")
	}
	built, err := buildFromSnapshot(sess.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	sess.Restore(built)
	if again := step(t, sess, []int{3, 3}, "k2"); again != second {
		t.Fatalf("repeated k2 after a restore:\n got: %s\nwant: %s", again, second)
	}
	windows(2, "repeated k2")
	sess.Reset()
	step(t, sess, []int{3, 3}, "k2")
	windows(3, "k2 after a reset")
}

// TestStepKeyLimit: a key over maxIdempotencyKeyBytes is refused with 400
// bad_request before anything steps; a key at the limit steps.
func TestStepKeyLimit(t *testing.T) {
	c := newClient(t)
	id := c.createSession(6).ID
	long := strings.Repeat("k", maxIdempotencyKeyBytes+1)
	status, body := c.keyedStep(id, long)
	var env ErrorEnvelope
	if status != http.StatusBadRequest || json.Unmarshal([]byte(body), &env) != nil || env.Error.Code != CodeBadRequest {
		t.Fatalf("over-long key: status %d %s, want 400 bad_request", status, body)
	}
	if status, _ := c.keyedStep(id, long[1:]); status != http.StatusOK || c.windows(id) != 1 {
		t.Fatalf("key at the limit: status %d, windows %d", status, c.windows(id))
	}
}

// TestSpillAllWritesOnlyDirtySessions walks the spill copy: a sync pass
// writes only sessions a mutation touched since their last spill; reads do
// not dirty a session, a failed write leaves it dirty, and a session
// rehydrated without WithDurableSessions is dirty because its store was
// deleted.
func TestSpillAllWritesOnlyDirtySessions(t *testing.T) {
	spill := t.TempDir()
	srv := NewServer(WithSpillDir(spill))
	s1, s2 := newCore(t, srv, 6), newCore(t, srv, 6)
	pass := func(want int) {
		t.Helper()
		if n, err := srv.SpillAll(); n != want || err != nil {
			t.Fatalf("SpillAll wrote %d (%v), want %d", n, err, want)
		}
	}
	pass(2)
	pass(0)
	s1.Info()
	s1.Snapshot()
	pass(0)
	for _, mutate := range []func() error{
		func() error { _, err := s1.Step(t.Context(), []int{3, 3}, ""); return err },
		func() error { s1.Reset(); return nil },
		func() error { _, err := s1.Burst([]int{1}); return err },
		func() error { _, err := s1.ArmFaults(crashPlan); return err },
		func() error { _, err := s2.AttachPolicy(testPolicy(2, 2)); return err },
		func() error {
			built, err := buildFromSnapshot(s2.Snapshot())
			if err == nil {
				s2.Restore(built)
			}
			return err
		},
	} {
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		pass(1)
	}

	step(t, s1, []int{3, 3}, "")
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
		for _, id := range []string{s1.id, s2.id} {
			if err := other.rehydrateOne(id); err != nil {
				t.Fatalf("rehydrate %s (durable %v): %v", id, durable, err)
			}
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
