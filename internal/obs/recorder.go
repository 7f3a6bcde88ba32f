package obs

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
)

// Recorder is the JSONL span sink: every finished span at or above its
// level becomes one "span" line, written through a log/slog JSONHandler.
// Spans carry virtual (simulation) time in t0/t1 in sim-time mode; the
// handler strips slog's own wall-clock time attribute, so a seeded trace is
// deterministic and replayable.
//
// The level is also the tracer's debug gate: a Tracer starts debug spans
// only when its Recorder accepts debug records. A nil *Recorder is valid
// and writes nothing.
//
// Recorder is safe for concurrent use; each span is written as one line.
type Recorder struct {
	logger *slog.Logger
	level  slog.Level
	out    *lockedWriter
}

// lockedWriter serialises writes from concurrent emitters (slog handlers
// require a concurrency-safe writer) and owns the optional flush/close
// chain for file-backed recorders.
type lockedWriter struct {
	mu    sync.Mutex
	w     io.Writer
	flush func() error
	close func() error
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// NewRecorder returns a recorder writing JSONL span records at or above
// level to w.
func NewRecorder(w io.Writer, level slog.Level) *Recorder {
	out := &lockedWriter{w: w}
	h := slog.NewJSONHandler(out, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{} // drop wall time: traces must be replayable
			}
			return a
		},
	})
	return &Recorder{logger: slog.New(h), level: level, out: out}
}

// FileRecorder opens path (truncating) and returns a buffered recorder at
// the named level ("debug", "info", "warn", "error"). An empty path returns
// a nil (disabled) recorder with no error — the CLI -trace-out contract.
// Close flushes and closes the file.
func FileRecorder(path, level string) (*Recorder, error) {
	lvl, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: open trace file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	r := NewRecorder(bw, lvl)
	r.out.flush = bw.Flush
	r.out.close = f.Close
	return r, nil
}

// ParseLevel parses a slog level name ("debug", "info", "warn", "error",
// case-insensitive, with optional +N/-N offsets as in slog).
func ParseLevel(s string) (slog.Level, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("obs: bad log level %q (debug, info, warn, error)", s)
	}
	return l, nil
}

// Close flushes buffered output and closes the underlying file, if any.
// Safe on a nil recorder.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.out.mu.Lock()
	defer r.out.mu.Unlock()
	if r.out.flush != nil {
		if err := r.out.flush(); err != nil {
			return err
		}
	}
	if r.out.close != nil {
		return r.out.close()
	}
	return nil
}

// enabled reports whether r writes records at lvl. False on a nil recorder.
func (r *Recorder) enabled(lvl slog.Level) bool { return r != nil && lvl >= r.level }
