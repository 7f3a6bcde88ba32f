package obs

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func captureFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".pprof") {
			names = append(names, e.Name())
		}
	}
	return names
}

func TestProfileCapturerNilSafe(t *testing.T) {
	var p *ProfileCapturer
	if _, ok, _ := p.capture("x"); ok {
		t.Fatal("nil capturer captured")
	}
	if p.Captures() != 0 || p.Dropped() != 0 {
		t.Fatal("nil capturer counts non-zero")
	}
}

func TestProfileCapturerWritesHeap(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	p, err := NewProfileCapturer(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(TracerConfig{Recorder: NewRecorder(&buf, slog.LevelInfo), Profiler: p})
	if !tr.Trigger("divergence_rollback") {
		t.Fatal("first Trigger was rate-limited")
	}

	files := captureFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("capture files = %v, want one heap profile", files)
	}
	if !strings.Contains(files[0], "divergence_rollback") || !strings.HasSuffix(files[0], ".heap.pprof") {
		t.Fatalf("capture file name %q", files[0])
	}
	info, err := os.Stat(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("heap profile is empty")
	}
	lines := decodeLines(t, &buf)
	if len(lines) != 1 || lines[0]["msg"] != "span" || lines[0]["name"] != "profile.capture" ||
		lines[0]["reason"] != "divergence_rollback" || !strings.HasPrefix(files[0], lines[0]["file"].(string)) {
		t.Fatalf("want one profile.capture span naming the reason and file %s: %v", files[0], lines)
	}
}

func TestProfileCapturerRateLimit(t *testing.T) {
	dir := t.TempDir()
	p, err := NewProfileCapturer(dir)
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1700000000, 0)
	p.setNow(func() time.Time { return clock })

	if _, ok, _ := p.capture("hpa_fallback"); !ok {
		t.Fatal("first trigger limited")
	}
	clock = clock.Add(profileMinInterval - time.Second)
	if _, ok, _ := p.capture("hpa_fallback"); ok {
		t.Fatal("trigger inside the minimum interval not limited")
	}
	clock = clock.Add(time.Second)
	if _, ok, _ := p.capture("hpa_fallback"); !ok {
		t.Fatal("trigger after the minimum interval limited")
	}
	if p.Captures() != 2 || p.Dropped() != 1 {
		t.Fatalf("captures=%d dropped=%d, want 2/1", p.Captures(), p.Dropped())
	}
	if got := len(captureFiles(t, dir)); got != 2 {
		t.Fatalf("files on disk = %d, want 2", got)
	}
}

func TestProfileCapturerDirSizeCap(t *testing.T) {
	dir := t.TempDir()
	p, err := NewProfileCapturer(dir)
	if err != nil {
		t.Fatal(err)
	}
	p.maxDirBytes = 1 // the 32 MiB production cap, shrunk to test cheaply
	clock := time.Unix(1700000000, 0)
	p.setNow(func() time.Time { c := clock; clock = clock.Add(profileMinInterval); return c })

	for i := 0; i < 4; i++ {
		if _, ok, _ := p.capture("slow_span"); !ok {
			t.Fatalf("trigger %d limited", i)
		}
	}
	// A 1-byte budget can never fit a heap profile, so after every capture
	// all but the newest file must have been evicted (the newest is written
	// after eviction of the older ones; the final enforce pass leaves at
	// most the newest over-budget file).
	files := captureFiles(t, dir)
	if len(files) > 1 {
		t.Fatalf("size cap kept %d files: %v", len(files), files)
	}
	if p.Captures() != 4 {
		t.Fatalf("captures = %d, want 4", p.Captures())
	}
}

func TestProfileCapturerBadDir(t *testing.T) {
	if _, err := NewProfileCapturer(""); err == nil {
		t.Fatal("empty dir accepted")
	}
	file := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewProfileCapturer(filepath.Join(file, "sub")); err == nil {
		t.Fatal("dir under a regular file accepted")
	}
}

func TestSanitizeReason(t *testing.T) {
	for in, want := range map[string]string{
		"divergence_rollback": "divergence_rollback",
		"":                    "anomaly",
		"a b/c..d":            "a_b_c__d",
	} {
		if got := sanitizeReason(in); got != want {
			t.Fatalf("sanitizeReason(%q) = %q, want %q", in, got, want)
		}
	}
	long := strings.Repeat("x", 100)
	if got := sanitizeReason(long); len(got) != 48 {
		t.Fatalf("long reason not truncated: %d chars", len(got))
	}
}
