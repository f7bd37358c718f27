package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/httpapi"
	"repro/internal/imagegen"
	"repro/internal/obsv"
	"repro/internal/service"
)

// SoakConfig drives the soak instrument: a duration-bounded closed loop
// of oracle-driven sessions against one instrumented service, sampled
// on an interval. Where the serve benchmark measures throughput at
// fixed session counts, the soak answers the operational questions —
// does latency hold across minutes of sustained load, does memory
// creep, what fraction of sessions meet the interactivity budgets.
type SoakConfig struct {
	// Seed makes the collection and query streams deterministic.
	Seed int64
	// Scale multiplies the paper's collection cardinality.
	Scale float64
	// K is the result-list size per session.
	K int
	// Epsilon is the Simplex Tree insert threshold ε.
	Epsilon float64
	// Clients is the closed-loop client count.
	Clients int
	// Duration bounds the run.
	Duration time.Duration
	// SampleEvery is the registry/runtime sampling interval.
	SampleEvery time.Duration
	// IterationBudget bounds feedback rounds per session.
	IterationBudget int
	// CacheSize is the service's LRU prediction cache capacity.
	CacheSize int
	// Obs receives the service/WAL/shard instruments; a private registry
	// is created when nil so the result always carries a snapshot.
	Obs *obsv.Registry
}

// DefaultSoakConfig is the committed-artifact operating point: small
// enough for CI, long enough that the sampler sees several intervals.
func DefaultSoakConfig() SoakConfig {
	return SoakConfig{
		Seed:        1,
		Scale:       0.3,
		K:           10,
		Epsilon:     0.05,
		Clients:     8,
		Duration:    10 * time.Second,
		SampleEvery: time.Second,
	}
}

// SoakSample is one point of the time series: cumulative work counters
// next to the process's memory and scheduler state, so a leak or a GC
// death spiral shows as a trend, not a single end-state number.
type SoakSample struct {
	ElapsedSecs    float64 `json:"elapsed_secs"`
	Sessions       uint64  `json:"sessions"`
	Ops            uint64  `json:"ops"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	// RSSBytes is resident memory from /proc/self/statm (0 where the
	// proc filesystem is unavailable).
	RSSBytes   uint64 `json:"rss_bytes"`
	Goroutines int    `json:"goroutines"`
	GCCycles   uint32 `json:"gc_cycles"`
}

// SoakBudget is one interactivity budget row: the fraction of complete
// sessions (Open → feedback rounds → Close, wall clock) that finished
// within the budget.
type SoakBudget struct {
	BudgetSecs float64 `json:"budget_secs"`
	Sessions   uint64  `json:"sessions"`
	Fraction   float64 `json:"fraction"`
}

// SoakOpLatency is one service operation's latency distribution, read
// back from the observability registry — the soak consumes the same
// series /metrics exposes, so the report doubles as a check that the
// instrumentation plane measures what operators will scrape.
type SoakOpLatency struct {
	Op      string  `json:"op"`
	Count   uint64  `json:"count"`
	P50Secs float64 `json:"p50_secs"`
	P95Secs float64 `json:"p95_secs"`
	P99Secs float64 `json:"p99_secs"`
}

// SoakResult is the full soak report.
type SoakResult struct {
	Collection   int     `json:"collection"`
	Dim          int     `json:"dim"`
	K            int     `json:"k"`
	Clients      int     `json:"clients"`
	DurationSecs float64 `json:"duration_secs"`
	Sessions     uint64  `json:"sessions"`
	Ops          uint64  `json:"ops"`
	// SessionsPerSec is completed sessions per wall-clock second over the
	// whole run.
	SessionsPerSec float64 `json:"sessions_per_sec"`
	// Budgets reports the 100ms/500ms interactivity fractions.
	Budgets []SoakBudget `json:"budgets"`
	// OpLatencies are per-operation quantiles from the registry.
	OpLatencies []SoakOpLatency `json:"op_latencies"`
	Samples     []SoakSample    `json:"samples"`
	FinalStats  service.Stats   `json:"final_stats"`
	// Metrics is the full registry snapshot at shutdown — every series
	// the /metrics endpoint would have served.
	Metrics *obsv.Snapshot `json:"metrics"`
}

// InteractivityBudgets are the session wall-clock budgets the soak
// reports against: the sub-100ms "feels instantaneous" bar and the
// 500ms "still interactive" bar of interactive-exploration benchmarks.
var InteractivityBudgets = []float64{0.100, 0.500}

// RunSoak builds an instrumented serving stack and drives closed-loop
// oracle sessions for cfg.Duration, sampling the registry and runtime
// every cfg.SampleEvery.
func RunSoak(cfg SoakConfig) (SoakResult, error) {
	if cfg.Scale <= 0 {
		return SoakResult{}, fmt.Errorf("experiments: scale must be positive, got %v", cfg.Scale)
	}
	if cfg.K <= 0 {
		return SoakResult{}, fmt.Errorf("experiments: k must be positive, got %d", cfg.K)
	}
	if cfg.Clients <= 0 {
		return SoakResult{}, fmt.Errorf("experiments: need at least one client, got %d", cfg.Clients)
	}
	if cfg.Duration <= 0 {
		return SoakResult{}, fmt.Errorf("experiments: duration must be positive, got %v", cfg.Duration)
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = time.Second
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	ds, err := dataset.Build(imagegen.IMSILike(cfg.Seed, cfg.Scale), histogram.DefaultExtractor)
	if err != nil {
		return SoakResult{}, err
	}
	stack, err := httpapi.Assemble("soak", ds, nil, httpapi.Config{
		K: cfg.K, Epsilon: cfg.Epsilon, IterBudget: cfg.IterationBudget, CacheSize: cfg.CacheSize,
		MaxSessions: closedLoopSessions, Obs: reg,
	})
	if err != nil {
		return SoakResult{}, err
	}
	svc := stack.Service

	var (
		sessions atomic.Uint64
		ops      atomic.Uint64
		// withinBudget[i] counts sessions whose wall time fit
		// InteractivityBudgets[i].
		withinBudget = make([]atomic.Uint64, len(InteractivityBudgets))
		clientErr    atomic.Value
	)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
			for ctx.Err() == nil {
				item := ds.Items[rng.Intn(ds.Len())]
				n := 0
				t0 := time.Now()
				if _, err := oracleSession(svc, item, cfg.K, true, func(time.Duration) { n++ }); err != nil {
					// Shutdown races (ctx expired mid-session) are expected;
					// anything else aborts the soak.
					if ctx.Err() != nil {
						return
					}
					clientErr.Store(err)
					cancel()
					return
				}
				wall := time.Since(t0).Seconds()
				sessions.Add(1)
				ops.Add(uint64(n))
				for i, b := range InteractivityBudgets {
					if wall <= b {
						withinBudget[i].Add(1)
					}
				}
			}
		}(c)
	}

	start := time.Now()
	out := SoakResult{Collection: ds.Len(), Dim: ds.Dim, K: cfg.K, Clients: cfg.Clients}
	ticker := time.NewTicker(cfg.SampleEvery)
	for running := true; running; {
		select {
		case <-ticker.C:
			out.Samples = append(out.Samples, collectSoakSample(start, &sessions, &ops))
		case <-ctx.Done():
			running = false
		}
	}
	ticker.Stop()
	wg.Wait()
	if err, _ := clientErr.Load().(error); err != nil {
		return SoakResult{}, err
	}
	// One terminal sample so the series always covers the full run.
	out.Samples = append(out.Samples, collectSoakSample(start, &sessions, &ops))

	wall := time.Since(start).Seconds()
	out.DurationSecs = wall
	out.Sessions = sessions.Load()
	out.Ops = ops.Load()
	if wall > 0 {
		out.SessionsPerSec = float64(out.Sessions) / wall
	}
	for i, b := range InteractivityBudgets {
		row := SoakBudget{BudgetSecs: b, Sessions: withinBudget[i].Load()}
		if out.Sessions > 0 {
			row.Fraction = float64(row.Sessions) / float64(out.Sessions)
		}
		out.Budgets = append(out.Budgets, row)
	}
	out.FinalStats = svc.Stats()
	out.Metrics = reg.Snapshot()
	for _, op := range []string{"open", "feedback", "close", "predict"} {
		m := out.Metrics.Find("fb_service_request_seconds", obsv.L("op", op))
		if m == nil || m.Hist == nil || m.Hist.Count == 0 {
			continue
		}
		out.OpLatencies = append(out.OpLatencies, SoakOpLatency{
			Op:      op,
			Count:   m.Hist.Count,
			P50Secs: m.Hist.Quantile(0.50),
			P95Secs: m.Hist.Quantile(0.95),
			P99Secs: m.Hist.Quantile(0.99),
		})
	}
	return out, nil
}

// collectSoakSample reads the cumulative counters and the runtime.
func collectSoakSample(start time.Time, sessions, ops *atomic.Uint64) SoakSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return SoakSample{
		ElapsedSecs:    time.Since(start).Seconds(),
		Sessions:       sessions.Load(),
		Ops:            ops.Load(),
		HeapAllocBytes: ms.HeapAlloc,
		RSSBytes:       readRSS(),
		Goroutines:     runtime.NumGoroutine(),
		GCCycles:       ms.NumGC,
	}
}

// readRSS reports resident memory from /proc/self/statm (second field,
// in pages). Returns 0 on platforms without procfs — the sample's heap
// number still stands.
func readRSS() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}
