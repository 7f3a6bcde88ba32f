package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the fingerprint stored with every result, so two result files
// are only compared when they come from the same class of machine.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GitRev     string `json:"git_revision"`
	OSArch     string `json:"os_arch"`
}

func readHost() hostInfo {
	h := hostInfo{
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GitRev:     "unknown",
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitRev = s.Value
			}
		}
	}
	return h
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// procSample is a point reading of the runtime's cumulative counters;
// procDelta of two readings describes the interval between them.
type procSample struct {
	wall     time.Time
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	pauseNs  uint64
	gcCPU    float64 // seconds of CPU the collector has used
	heapSys  uint64
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	s := procSample{
		wall:     time.Now(),
		cpu:      cpuTime(),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		pauseNs:  ms.PauseTotalNs,
		heapSys:  ms.HeapSys,
	}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gc[0].Value.Float64()
	}
	return s
}

// procMetrics fills the proc.* rows for the interval from a to b, in which
// ops operations (requests, windows, DDPG updates) ran.
func procMetrics(m map[string]float64, a, b procSample, ops int) {
	if ops < 1 {
		ops = 1
	}
	cpu := (b.cpu - a.cpu).Seconds()
	m["proc.allocs_per_op"] = float64(b.mallocs-a.mallocs) / float64(ops)
	m["proc.bytes_per_op"] = float64(b.bytes-a.bytes) / float64(ops)
	m["proc.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	m["proc.gc_pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6
	if cpu > 0 {
		m["proc.gc_cpu_pct"] = 100 * (b.gcCPU - a.gcCPU) / cpu
	}
	m["proc.heap_peak_mb"] = float64(b.heapSys) / (1 << 20)
	m["proc.cpu_s"] = cpu
}
