// Anomaly-triggered profiling: when something goes wrong — a divergence
// rollback, an HPA fallback, a span blowing past its latency threshold —
// the ProfileCapturer writes a pprof heap profile into a size-capped
// directory, so the evidence exists before anyone tries to reproduce the
// incident. Captures are rate-limited and bounded; a nil capturer is a
// no-op, mirroring the nil Tracer discipline. The capturer rides on
// a Tracer (TracerConfig.Profiler), whose Trigger and slow spans fire it.

package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// A capturer takes at most one capture per profileMinInterval (triggers
// arriving sooner are dropped, counted in Dropped) and deletes the oldest
// captures once those in its directory exceed profileMaxDirBytes.
const (
	profileMinInterval = 30 * time.Second
	profileMaxDirBytes = 32 << 20
)

// ProfileCapturer writes rate-limited pprof captures on anomaly triggers.
// All methods are safe on a nil receiver and safe for concurrent use.
type ProfileCapturer struct {
	dir string
	// maxDirBytes is profileMaxDirBytes; the size-cap test shrinks it.
	maxDirBytes int64
	now         func() time.Time // injectable for rate-limit tests

	mu       sync.Mutex
	last     time.Time
	seq      uint64
	captures uint64
	dropped  uint64
}

// NewProfileCapturer returns a capturer writing into dir, creating the
// directory eagerly so a misconfigured path fails at startup, not at the
// first incident.
func NewProfileCapturer(dir string) (*ProfileCapturer, error) {
	if dir == "" {
		return nil, fmt.Errorf("obs: profile dir is empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: profile dir: %w", err)
	}
	return &ProfileCapturer{
		dir:         dir,
		maxDirBytes: profileMaxDirBytes,
		now:         time.Now,
	}, nil
}

// setNow swaps the clock used for rate limiting and file naming (tests).
func (p *ProfileCapturer) setNow(fn func() time.Time) { p.now = fn }

// Captures returns how many captures have been written.
func (p *ProfileCapturer) Captures() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.captures
}

// Dropped returns how many triggers were dropped by the rate limit.
func (p *ProfileCapturer) Dropped() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// capture writes a heap profile for the named anomaly (see Tracer.Trigger).
// ok reports whether a capture was taken (false if it was rate-limited or
// the receiver is nil); file is its name stem and heapErr a failure to
// write the profile.
func (p *ProfileCapturer) capture(reason string) (file string, ok bool, heapErr error) {
	if p == nil {
		return "", false, nil
	}
	p.mu.Lock()
	now := p.now()
	if !p.last.IsZero() && now.Sub(p.last) < profileMinInterval {
		p.dropped++
		p.mu.Unlock()
		return "", false, nil
	}
	p.last = now
	p.seq++
	seq := p.seq
	p.captures++
	p.mu.Unlock()

	base := fmt.Sprintf("%s-%04d-%s", now.UTC().Format("20060102T150405"), seq, sanitizeReason(reason))
	heapPath := filepath.Join(p.dir, base+".heap.pprof")
	heapErr = p.writeHeap(heapPath)
	p.enforceCap()
	return base, true, heapErr
}

func (p *ProfileCapturer) writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // fresh heap statistics
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// enforceCap deletes the oldest capture files until the directory fits the
// byte budget.
func (p *ProfileCapturer) enforceCap() {
	p.mu.Lock()
	defer p.mu.Unlock()
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return
	}
	type capFile struct {
		name string
		size int64
	}
	var files []capFile
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".pprof") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, capFile{e.Name(), info.Size()})
		total += info.Size()
	}
	// Capture names start with a UTC timestamp + sequence number, so
	// lexical order is age order.
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })
	for _, f := range files {
		if total <= p.maxDirBytes {
			break
		}
		if err := os.Remove(filepath.Join(p.dir, f.name)); err == nil {
			total -= f.size
		}
	}
}

// sanitizeReason keeps capture file names shell- and filesystem-safe.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "anomaly"
	}
	var b strings.Builder
	for _, c := range reason {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	const maxLen = 48
	s := b.String()
	if len(s) > maxLen {
		s = s[:maxLen]
	}
	return s
}
