package httpapi

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"repro/internal/obsv"
)

// processStart anchors the uptime reported by /stats and /healthz.
var processStart = time.Now()

// serverInfo identifies the process behind a /stats or /healthz reply:
// operators correlate scrapes and incident timelines against the exact
// build and start time, and a changed PID or start time reveals a
// restart that load balancers would otherwise hide.
type serverInfo struct {
	StartTime     string  `json:"start_time"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision,omitempty"`
	PID           int     `json:"pid"`
	// HeapLiveBytes is the heap the last GC marked live
	// (runtime/metrics /gc/heap/live:bytes).
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
}

// buildRevision reads the VCS revision stamped into the binary at build
// time ("" for go test binaries and builds outside a checkout).
func buildRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
}

var buildRev = buildRevision()

func currentServerInfo() serverInfo {
	return serverInfo{
		StartTime:     processStart.UTC().Format(time.RFC3339),
		UptimeSeconds: time.Since(processStart).Seconds(),
		GoVersion:     runtime.Version(),
		Revision:      buildRev,
		PID:           os.Getpid(),
		HeapLiveBytes: readRuntimeMetric("/gc/heap/live:bytes"),
	}
}

// readRuntimeMetric returns the value of the uint64 runtime/metrics
// sample name; unlike runtime.ReadMemStats, reading it does not stop the
// world.
func readRuntimeMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// RegisterProcessMetrics exposes process-level runtime series next to
// the request-path instruments, so one scrape answers both "is it slow"
// and "is it leaking".
func RegisterProcessMetrics(reg *obsv.Registry) {
	reg.GaugeFunc("fb_process_start_time_seconds",
		"Unix time the process started.",
		func() float64 { return float64(processStart.UnixNano()) / 1e9 })
	reg.GaugeFunc("fb_process_goroutines",
		"Current number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("fb_process_heap_alloc_bytes",
		"Bytes of allocated heap objects, live or not yet swept (runtime.MemStats.HeapAlloc).",
		func() float64 { return float64(readRuntimeMetric("/memory/classes/heap/objects:bytes")) })
	reg.GaugeFunc("fb_process_heap_live_bytes",
		"Bytes of heap objects the last GC marked live.",
		func() float64 { return float64(readRuntimeMetric("/gc/heap/live:bytes")) })
	reg.GaugeFunc("fb_process_gc_cycles_total",
		"Completed GC cycles since process start.",
		func() float64 { return float64(readRuntimeMetric("/gc/cycles/total:gc-cycles")) })
}
