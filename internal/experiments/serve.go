package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/httpapi"
	"repro/internal/imagegen"
	"repro/internal/service"
)

// ServeConfig drives the closed-loop serving benchmark: oracle-driven
// sessions (the session-replay protocol of §5, §ProcessQuery, re-cast as
// concurrent clients) against one shared service.
type ServeConfig struct {
	// Seed makes the collection and query streams deterministic.
	Seed int64
	// Scale multiplies the paper's collection cardinality.
	Scale float64
	// K is the result-list size per session.
	K int
	// Epsilon is the Simplex Tree insert threshold ε.
	Epsilon float64
	// SessionsPerLevel is the number of complete sessions each
	// concurrency level runs.
	SessionsPerLevel int
	// Levels are the closed-loop client counts to measure (default
	// 1, 4, 8, 16).
	Levels []int
	// IterationBudget bounds feedback rounds per session.
	IterationBudget int
	// CacheSize is the service's LRU prediction cache capacity.
	CacheSize int
}

// DefaultServeConfig is the operating point of the committed benchmark
// artifact.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		Seed:             1,
		Scale:            0.3,
		K:                10,
		Epsilon:          0.05,
		SessionsPerLevel: 128,
		Levels:           []int{1, 4, 8, 16},
	}
}

// ServePhaseResult measures one phase of a concurrency level: a set of
// complete sessions with their throughput, per-operation latency
// distribution, and bypass effectiveness.
type ServePhaseResult struct {
	Sessions int `json:"sessions"`
	// Ops counts service calls (Open + Feedback + Close).
	Ops int `json:"ops"`
	// Feedbacks counts feedback rounds across the phase's sessions.
	Feedbacks int     `json:"feedbacks"`
	WallSecs  float64 `json:"wall_secs"`
	// SessionsPerSec is completed sessions per wall-clock second.
	SessionsPerSec float64 `json:"sessions_per_sec"`
	// P50/P99 are per-operation latencies in microseconds.
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	// CacheHitRate is LRU hits / predictions; WarmRate the fraction of
	// sessions whose prediction was non-default (the tree had learned the
	// region); Inserted the closes that changed the tree.
	CacheHitRate float64 `json:"cache_hit_rate"`
	WarmRate     float64 `json:"warm_rate"`
	Inserted     int64   `json:"inserted"`
}

// ServeLevelResult is one row of the serving benchmark. Each level runs
// two phases at the same client count: Train — interactive sessions
// driving the oracle feedback loop to convergence and inserting outcomes
// (inserts invalidate the prediction cache, so its hit rate is naturally
// near zero here) — and Bypass, the paper's payoff workload: the same
// query stream re-issued without feedback, answered straight from the
// trained tree through the LRU cache.
type ServeLevelResult struct {
	Clients int              `json:"clients"`
	Train   ServePhaseResult `json:"train"`
	Bypass  ServePhaseResult `json:"bypass"`
}

// ServeResult is the full benchmark output.
type ServeResult struct {
	Collection int                `json:"collection"`
	Dim        int                `json:"dim"`
	K          int                `json:"k"`
	Levels     []ServeLevelResult `json:"levels"`
	// FinalStats snapshots the service after every level ran (the tree
	// keeps warming across levels — levels are a time series over one
	// service, not independent trials).
	FinalStats service.Stats `json:"final_stats"`
}

// RunServe builds a collection, a shared engine + Bypass + service, and
// measures closed-loop oracle-driven sessions at each concurrency level.
// The service is shared across levels, so later levels run against a
// warmer tree — exactly a production service's trajectory.
func RunServe(cfg ServeConfig) (ServeResult, error) {
	if cfg.Scale <= 0 {
		return ServeResult{}, fmt.Errorf("experiments: scale must be positive, got %v", cfg.Scale)
	}
	if cfg.SessionsPerLevel <= 0 {
		return ServeResult{}, fmt.Errorf("experiments: need at least one session per level, got %d", cfg.SessionsPerLevel)
	}
	if cfg.K <= 0 {
		return ServeResult{}, fmt.Errorf("experiments: k must be positive, got %d", cfg.K)
	}
	if len(cfg.Levels) == 0 {
		cfg.Levels = []int{1, 4, 8, 16}
	}
	ds, err := dataset.Build(imagegen.IMSILike(cfg.Seed, cfg.Scale), histogram.DefaultExtractor)
	if err != nil {
		return ServeResult{}, err
	}
	c, err := httpapi.Assemble("serve", ds, nil, httpapi.Config{
		K: cfg.K, Epsilon: cfg.Epsilon, IterBudget: cfg.IterationBudget, CacheSize: cfg.CacheSize,
		MaxSessions: closedLoopSessions,
	})
	if err != nil {
		return ServeResult{}, err
	}
	svc := c.Service
	out := ServeResult{Collection: ds.Len(), Dim: ds.Dim, K: cfg.K}
	for _, clients := range cfg.Levels {
		if clients <= 0 {
			return ServeResult{}, fmt.Errorf("experiments: non-positive client count %d", clients)
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(clients)*1009))
		items, err := ds.SampleQueries(rng, cfg.SessionsPerLevel)
		if err != nil {
			return ServeResult{}, err
		}
		level := ServeLevelResult{Clients: clients}
		if level.Train, level.Bypass, err = runPhasePair(svc, cfg.K, clients, items); err != nil {
			return ServeResult{}, err
		}
		out.Levels = append(out.Levels, level)
	}
	out.FinalStats = svc.Stats()
	return out, nil
}

// closedLoopSessions is the admission bound the closed-loop figures
// assemble their stack with: every client has at most one session in
// flight, so admission never binds.
const closedLoopSessions = 1 << 16

// refineSession opens a session on item and, with feedback, plays the
// category oracle (engine.Score) round after round until the service
// reports convergence. observe receives the latency of every service
// call made.
func refineSession(svc *service.Service, item dataset.Item, k int, withFeedback bool, observe func(time.Duration)) (service.SessionState, error) {
	ctx := context.Background()
	t0 := time.Now()
	st, err := svc.Open(ctx, item.Feature, k)
	observe(time.Since(t0))
	for err == nil && withFeedback && !st.Converged {
		scores := svc.Engine().Score(item.Category, st.Results)
		t0 = time.Now()
		st, err = svc.Feedback(ctx, st.ID, scores)
		observe(time.Since(t0))
	}
	return st, err
}

// oracleSession drives one complete session — Open, the oracle's
// feedback rounds, Close — the closed-loop client every serving figure
// shares.
func oracleSession(svc *service.Service, item dataset.Item, k int, withFeedback bool, observe func(time.Duration)) (service.CloseResult, error) {
	st, err := refineSession(svc, item, k, withFeedback, observe)
	if err != nil {
		return service.CloseResult{}, err
	}
	t0 := time.Now()
	res, err := svc.Close(context.Background(), st.ID)
	observe(time.Since(t0))
	return res, err
}

// runPhasePair is the serve protocol over one query stream at one client
// count: a train phase (oracle feedback loops to convergence, outcomes
// inserted) followed by a bypass phase re-issuing the stream twice
// without feedback. Every query in the first pass misses the
// (insert-invalidated) cache and fills it; the second pass models the
// repeat traffic an interactive service actually sees and is answered
// from the LRU.
func runPhasePair(svc *service.Service, k, clients int, items []int) (train, bypass ServePhaseResult, err error) {
	if train, err = runServePhase(svc, k, clients, items, true); err != nil {
		return train, bypass, err
	}
	twice := append(append(make([]int, 0, 2*len(items)), items...), items...)
	bypass, err = runServePhase(svc, k, clients, twice, false)
	return train, bypass, err
}

// runServePhase drives `clients` goroutines through complete sessions
// over the shared query stream. With feedback, sessions run the oracle
// loop to convergence; without, they are pure bypass reads (Open + Close).
func runServePhase(svc *service.Service, k, clients int, items []int, withFeedback bool) (ServePhaseResult, error) {
	ds := svc.Engine().Dataset()
	before := svc.Stats()

	type clientOut struct {
		latencies []time.Duration
		err       error
	}
	outs := make([]clientOut, clients)
	var next atomic.Int64 // index of the next unclaimed session in items
	var wg sync.WaitGroup
	start := time.Now()
	for c := range outs {
		wg.Add(1)
		go func(o *clientOut) {
			defer wg.Done()
			observe := func(d time.Duration) { o.latencies = append(o.latencies, d) }
			for o.err == nil {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				_, o.err = oracleSession(svc, ds.Items[items[i]], k, withFeedback, observe)
			}
		}(&outs[c])
	}
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	for c := range outs {
		if outs[c].err != nil {
			return ServePhaseResult{}, outs[c].err
		}
		all = append(all, outs[c].latencies...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	after := svc.Stats()

	res := ServePhaseResult{
		Sessions:       len(items),
		Ops:            len(all),
		Feedbacks:      len(all) - 2*len(items), // every session is one Open, one Close and its rounds
		WallSecs:       wall.Seconds(),
		SessionsPerSec: float64(len(items)) / wall.Seconds(),
		P50Micros:      float64(percentile(all, 0.50).Microseconds()),
		P99Micros:      float64(percentile(all, 0.99).Microseconds()),
	}
	res.setBypassEffect(before, after)
	return res, nil
}

// setBypassEffect fills the phase's bypass-effectiveness columns from the
// service counters bracketing it.
func (r *ServePhaseResult) setBypassEffect(before, after service.Stats) {
	r.Inserted = after.InsertsStored - before.InsertsStored
	if dp := after.Predictions - before.Predictions; dp > 0 {
		r.CacheHitRate = float64(after.CacheHits-before.CacheHits) / float64(dp)
	}
	if do := after.Opened - before.Opened; do > 0 {
		r.WarmRate = float64(after.WarmStarts-before.WarmStarts) / float64(do)
	}
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted durations by
// nearest-rank.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
