package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func decodeLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

// TestRecorderJSONL: a span's record is one JSON line carrying every typed
// attribute, slices as arrays, and no wall-clock time.
func TestRecorderJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(TracerConfig{Recorder: NewRecorder(&buf, slog.LevelInfo), SimTime: true})
	tr.Start("window").T0(0).
		Int("window", 1).
		Ints("action", []int{4, 4, 3, 3}).
		F64s("wip", []float64{0, 1.5}).
		F64("reward", -3.5).
		Str("ensemble", "msd").
		Bool("burst", true).
		Uint("updates", 7).
		EndT(30)
	lines := decodeLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	m := lines[0]
	if m["msg"] != "span" || m["name"] != "window" || m["level"] != "INFO" {
		t.Fatalf("msg/name/level wrong: %v", m)
	}
	if _, hasTime := m["time"]; hasTime {
		t.Fatal("wall-clock time leaked into the trace; replays would not be deterministic")
	}
	if m["t1"] != 30.0 || m["reward"] != -3.5 || m["window"] != 1.0 || m["ensemble"] != "msd" ||
		m["burst"] != true || m["updates"] != 7.0 {
		t.Fatalf("scalar attrs wrong: %v", m)
	}
	if a, ok := m["action"].([]any); !ok || len(a) != 4 || a[0] != 4.0 {
		t.Fatalf("action attr wrong: %v", m["action"])
	}
	if w, ok := m["wip"].([]any); !ok || len(w) != 2 || w[1] != 1.5 {
		t.Fatalf("wip attr wrong: %v", m["wip"])
	}
}

// TestRecorderLevelFiltering: the recorder writes only spans at or above
// its level.
func TestRecorderLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf, slog.LevelWarn)
	tr := NewTracer(TracerConfig{Recorder: rec, SimTime: true})
	tr.Start("dropped").F64("x", 1).End()
	if buf.Len() != 0 {
		t.Fatalf("info span written below a warn recorder: %s", buf.String())
	}

	rec = NewRecorder(&buf, slog.LevelInfo)
	tr = NewTracer(TracerConfig{Recorder: rec, SimTime: true})
	tr.Start("kept").End()
	lines := decodeLines(t, &buf)
	if len(lines) != 1 || lines[0]["name"] != "kept" {
		t.Fatalf("level filtering wrong: %v", lines)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.enabled(slog.LevelError) {
		t.Fatal("nil recorder accepts records")
	}
	tr := NewTracer(TracerConfig{Recorder: r, SimTime: true})
	tr.Start("x").T0(1).F64("a", 2).Ints("b", []int{1}).EndT(2) // must not panic
	if sp := tr.StartDebug("y"); sp != nil {
		t.Fatal("a tracer without a recorder started a debug span")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestRecorderConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(TracerConfig{Recorder: NewRecorder(&buf, slog.LevelDebug), SimTime: true})
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.StartDebug("tick").Int("worker", id).Int("i", i).End()
			}
		}(w)
	}
	wg.Wait()
	lines := decodeLines(t, &buf) // every line must parse: no interleaving
	if len(lines) != workers*per {
		t.Fatalf("got %d lines, want %d", len(lines), workers*per)
	}
}

func TestFileRecorder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	r, err := FileRecorder(path, "debug")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(TracerConfig{Recorder: r, SimTime: true})
	tr.Start("a").Int("n", 1).End()
	tr.StartDebug("b").End()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != 2 {
		t.Fatalf("file has %d lines, want 2:\n%s", got, data)
	}

	// Empty path: disabled recorder, no file, no error.
	nilRec, err := FileRecorder("", "info")
	if err != nil || nilRec != nil {
		t.Fatalf("empty path: rec=%v err=%v, want nil/nil", nilRec, err)
	}

	if _, err := FileRecorder(path, "loud"); err == nil {
		t.Fatal("bad level accepted")
	}
}

// BenchmarkSpanEmit measures the enabled path writing one debug span with
// the per-update attributes to memory.
func BenchmarkSpanEmit(b *testing.B) {
	var buf bytes.Buffer
	tr := NewTracer(TracerConfig{Recorder: NewRecorder(&buf, slog.LevelDebug), SimTime: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		tr.StartDebug("ddpg.update").Uint("update", uint64(i)).F64("critic_loss", 0.5).End()
	}
}
