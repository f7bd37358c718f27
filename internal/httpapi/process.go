package httpapi

import (
	"os"
	"runtime"
	"runtime/debug"
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
	}
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
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.GaugeFunc("fb_process_gc_cycles_total",
		"Completed GC cycles since process start.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
}
