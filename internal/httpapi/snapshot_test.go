package httpapi

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"miras/internal/checkpoint"
	"miras/internal/env"
)

// encodeJSON encodes v as the codec writes a JSON answer.
func encodeJSON(t *testing.T, v any) string {
	t.Helper()
	var b strings.Builder
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// restoreRaw restores the snapshot raw encodes over a fresh session on srv.
func restoreRaw(t *testing.T, srv *Server, raw string) (*session, error) {
	t.Helper()
	var snap SessionSnapshot
	if err := json.Unmarshal([]byte(raw), &snap); err != nil {
		t.Fatal(err)
	}
	sess := newCore(t, srv, 4)
	built, err := buildFromSnapshot(snap)
	if err == nil {
		sess.Restore(built)
	}
	return sess, err
}

// TestRejectedBurstLeavesSessionUnchanged pins that a refused burst changes
// nothing: the live state stays where it was, and so equals what a snapshot
// of the session rebuilds. A burst that submitted the counts before the bad
// one used to leave the live session ahead of its own op log, so drain →
// rehydrate and failover silently dropped those requests. A burst over the
// burst bound is refused the same way.
func TestRejectedBurstLeavesSessionUnchanged(t *testing.T) {
	for _, counts := range [][]int{{500, -1, 0}, {2000000000, 0, 0}} {
		srv := NewServer()
		sess := admitted(t, srv, CreateRequest{Ensemble: "msd", Budget: 14})
		before := sess.Info().State
		if _, err := sess.Burst(counts); codeOf(err) != CodeBadBurst {
			t.Fatalf("burst %v: %v, want %s", counts, err, CodeBadBurst)
		}
		if after := sess.Info().State; !reflect.DeepEqual(after, before) {
			t.Fatalf("rejected burst %v changed the state: %v → %v", counts, before, after)
		}
		restored, err := restoreRaw(t, srv, encodeJSON(t, sess.Snapshot()))
		if err != nil || !reflect.DeepEqual(restored.Info().State, before) {
			t.Fatalf("live state %v, but its snapshot restores to %v (%v)", before, restored.Info().State, err)
		}
	}
}

// TestRestoreRefusesOversizedBurst pins the burst bound on the other path
// to Env.InjectBurst: a client-supplied op log holding a burst over the
// bound is refused as bad_snapshot, and the session is untouched.
func TestRestoreRefusesOversizedBurst(t *testing.T) {
	srv := NewServer()
	target := newCore(t, srv, 4)
	before := target.Info()
	_, err := buildFromSnapshot(SessionSnapshot{
		Create: CreateRequest{Ensemble: "toy", Budget: 4},
		Ops:    []env.Op{{Kind: "burst", Counts: []int{2000000000}}},
	})
	if codeOf(err) != CodeBadSnapshot {
		t.Fatalf("restore of an oversized burst: %v, want %s", err, CodeBadSnapshot)
	}
	if after := target.Info(); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused restore changed the session:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestSnapshotFixtureRestoresByteIdentical restores a snapshot captured from
// the previous server (a failure-aware toy session that saw steps, bursts, a
// reset and a two-spec fault plan) through both restore paths — Restore,
// and rehydrate from a spill store — and requires the session's snapshot to
// encode to the fixture's exact bytes: spills written before the op log
// moved into env rehydrate unchanged.
func TestSnapshotFixtureRestoresByteIdentical(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "session_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	// What the capturing session reported for itself.
	check := func(path string, sess *session) {
		t.Helper()
		if info := sess.Info(); info.Windows != 4 || info.FaultSpecs != 2 || !reflect.DeepEqual(info.State, []float64{2, 2, 1, 4}) {
			t.Fatalf("%s: windows=%d fault_specs=%d state=%v, want 4, 2, [2 2 1 4]",
				path, info.Windows, info.FaultSpecs, info.State)
		}
		if got := encodeJSON(t, sess.Snapshot()); got != want {
			t.Fatalf("%s: snapshot\n got: %s\nwant: %s", path, got, want)
		}
	}

	dir := t.TempDir()
	srv := NewServer(WithSpillDir(dir))
	restored, err := restoreRaw(t, srv, want)
	if err != nil {
		t.Fatal(err)
	}
	check("restore", restored)
	kinds := map[string]bool{}
	for _, op := range restored.env.Ops() {
		kinds[op.Kind] = true
	}
	if len(kinds) != 4 {
		t.Fatalf("restored env recorded op kinds %v, want all four", kinds)
	}

	// The same bytes as a spill file, as the previous server wrote them.
	st, err := checkpoint.NewStore(filepath.Join(dir, "spilled"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(1, json.RawMessage(raw)); err != nil {
		t.Fatal(err)
	}
	if err := srv.rehydrateOne("spilled"); err != nil {
		t.Fatal(err)
	}
	check("rehydrate", srv.sessionByID("spilled"))
}
