package obs

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"time"
)

// MountDebug mounts the operational endpoints on mux:
//
//	GET /metrics              the registry in Prometheus text format
//	GET /healthz              liveness probe ("ok")
//	    /debug/pprof/*        net/http/pprof profiling handlers
//	GET /v1/debug/timeseries  ts as JSON (only when ts is non-nil)
//	GET /debug/dash           ts as HTML sparklines (likewise)
//
// pprof is mounted explicitly (not via the package's DefaultServeMux side
// effect) so servers with custom muxes get it too. The caller owns ts's
// sampling (TimeSeriesRing.Run over reg).
func MountDebug(mux *http.ServeMux, reg *Registry, ts *TimeSeriesRing) {
	mux.Handle("GET /metrics", reg.Handler())
	if ts != nil {
		mux.Handle("GET /v1/debug/timeseries", ts.Handler())
		mux.Handle("GET /debug/dash", ts.DashHandler())
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// RegisterProcessMetrics adds scrape-time process gauges (goroutines, heap,
// GC cycles, uptime) so /metrics is never empty, even on an idle server.
func RegisterProcessMetrics(reg *Registry) {
	start := time.Now()
	reg.GaugeFunc("process_goroutines", "Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("process_uptime_seconds", "Seconds since process metrics were registered.",
		func() float64 { return time.Since(start).Seconds() })
	reg.GaugeFunc("process_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.GaugeFunc("process_gc_cycles_total", "Completed GC cycles.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
	reg.GaugeFunc("process_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.PauseTotalNs) / 1e9
		})
	reg.GaugeFunc("process_gomaxprocs", "Value of GOMAXPROCS.",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
	reg.Gauge("miras_build_info", "Build information; value is always 1.",
		"go_version", runtime.Version(), "revision", buildRevision()).Set(1)
}

// buildRevision extracts the VCS revision stamped into the binary, or
// "unknown" for test binaries and unstamped builds.
func buildRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			if len(s.Value) > 12 {
				return s.Value[:12]
			}
			return s.Value
		}
	}
	return "unknown"
}
