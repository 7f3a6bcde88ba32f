package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Name  string    `json:"name"`
	Iter  int       `json:"iter"`
	Curve []float64 `json:"curve"`
}

func samplePayload(iter int) payload {
	return payload{Name: "run", Iter: iter, Curve: []float64{0.25, -1.5, 3.75, float64(iter)}}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("content = %q, want %q", got, "second")
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1: %v", len(entries), entries)
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Save(i, samplePayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got payload
	seq, err := st.LoadLatest(&got)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("seq = %d, want 2", seq)
	}
	want := samplePayload(2)
	if got.Name != want.Name || got.Iter != want.Iter || len(got.Curve) != len(want.Curve) {
		t.Fatalf("payload mismatch: %+v != %+v", got, want)
	}
	for i := range want.Curve {
		if got.Curve[i] != want.Curve[i] {
			t.Fatalf("curve[%d] = %g, want %g", i, got.Curve[i], want.Curve[i])
		}
	}
}

func TestStorePrune(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Save(i, samplePayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	seqs := st.seqs()
	if len(seqs) != 3 || seqs[0] != 2 || seqs[2] != 4 {
		t.Fatalf("after prune seqs = %v, want [2 3 4]", seqs)
	}
}

func TestLoadLatestEmptyDir(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if _, err := st.LoadLatest(&got); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

// TestCrashMidWrite simulates a crash at every byte-boundary class of the
// newest checkpoint file — truncation inside the header, at the newline, at
// every point inside the payload, plus single-bit corruption in header and
// payload — and requires that the loader (a) returns an error rather than
// panicking for the broken file in isolation, and (b) falls back to the
// previous intact checkpoint when one exists.
func TestCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(1, samplePayload(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(2, samplePayload(2)); err != nil {
		t.Fatal(err)
	}
	newest := st.path(2)
	intact, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}

	restore := func() {
		if err := os.WriteFile(newest, intact, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	check := func(t *testing.T, label string) {
		t.Helper()
		// The broken file alone must fail cleanly.
		var p payload
		if err := loadFile(newest, 2, &p); err == nil {
			t.Fatalf("%s: loadFile accepted a damaged file", label)
		}
		// The store must fall back to the previous checkpoint.
		var got payload
		seq, err := st.LoadLatest(&got)
		if err != nil {
			t.Fatalf("%s: LoadLatest did not fall back: %v", label, err)
		}
		if seq != 1 || got.Iter != 1 {
			t.Fatalf("%s: fell back to seq %d iter %d, want seq 1", label, seq, got.Iter)
		}
	}

	// Truncation at every length from 0 to len-1 (covers mid-header,
	// at-newline, and every mid-payload boundary).
	for n := 0; n < len(intact); n++ {
		if err := os.WriteFile(newest, intact[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, "truncate")
		restore()
	}

	// Single-bit flips at every byte (header corruption, payload corruption,
	// newline corruption).
	for i := 0; i < len(intact); i++ {
		mut := append([]byte(nil), intact...)
		mut[i] ^= 0x40
		if err := os.WriteFile(newest, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		var p payload
		if err := loadFile(newest, 2, &p); err == nil {
			// A flip inside JSON string content can still parse; it must
			// then fail the CRC — i.e. err == nil is only legal if the
			// payload bytes are untouched, which a flip precludes.
			t.Fatalf("bit flip at byte %d accepted", i)
		}
		restore()
	}

	// Appended garbage (size mismatch).
	if err := os.WriteFile(newest, append(append([]byte(nil), intact...), "xx"...), 0o644); err != nil {
		t.Fatal(err)
	}
	check(t, "append")
	restore()

	// Wrong magic.
	bad := strings.Replace(string(intact), Magic, "not-a-checkpoint!", 1)
	if err := os.WriteFile(newest, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	check(t, "magic")
	restore()

	// Sanity: restored file loads again.
	var got payload
	if seq, err := st.LoadLatest(&got); err != nil || seq != 2 {
		t.Fatalf("restored file failed to load: seq %d err %v", seq, err)
	}
}

// TestAllCorrupt verifies that when every checkpoint is damaged the store
// reports an error describing the corruption instead of ErrNoCheckpoint.
func TestAllCorrupt(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(1, samplePayload(1)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path(1), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	_, err = st.LoadLatest(&got)
	if err == nil || errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want corruption error", err)
	}
}

// part stands in for a payload field whose UnmarshalJSON validates what it
// reads: it rejects a negative N.
type part struct{ N int }

func (p *part) UnmarshalJSON(data []byte) error {
	var raw struct{ N int }
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.N < 0 {
		return fmt.Errorf("negative N %d", raw.N)
	}
	p.N = raw.N
	return nil
}

type taggedPayload struct {
	Tag  string `json:"tag,omitempty"`
	Part part   `json:"part"`
}

// TestLoadLatestDiscardsRejectedCandidate: a newest checkpoint that passes
// its CRC but fails to decode must not leave the fields it had already
// decoded (here the omitempty tag) in the older checkpoint returned.
func TestLoadLatestDiscardsRejectedCandidate(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(1, taggedPayload{Part: part{N: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(2, taggedPayload{Tag: "from-2", Part: part{N: -1}}); err != nil {
		t.Fatal(err)
	}
	var got taggedPayload
	seq, err := st.LoadLatest(&got)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || got != (taggedPayload{Part: part{N: 1}}) {
		t.Fatalf("LoadLatest = seq %d %+v, want seq 1 {Part:{N:1}}", seq, got)
	}
}
