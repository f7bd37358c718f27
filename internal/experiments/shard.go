package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/httpapi"
	"repro/internal/imagegen"
	"repro/internal/shardedbypass"
)

// ShardConfig drives the sharded-bypass-plane benchmark: for each shard
// count S it measures the raw durable insert path under concurrent
// writers, a train phase and a bypass phase through the serving layer,
// and how much of the prediction cache survives a single-shard insert.
type ShardConfig struct {
	// Seed makes the collection, workloads and query streams deterministic.
	Seed int64
	// Scale multiplies the paper's collection cardinality.
	Scale float64
	// K is the result-list size per session.
	K int
	// Epsilon is the Simplex Tree insert threshold ε for the serving
	// phases (the insert microbench always uses ε = 0 so every write
	// exercises the full journal+tree path).
	Epsilon float64
	// Sessions is the number of complete sessions per serving phase.
	Sessions int
	// ShardCounts are the S values to sweep (default 1, 2, 4, 8).
	ShardCounts []int
	// InsertOps is the insert count of the write-throughput microbench.
	InsertOps int
	// Writers is the number of concurrent writer goroutines of the
	// microbench.
	Writers int
	// Trials repeats the insert microbench (fresh module each time),
	// interleaving the shard counts within each round, and keeps the
	// fastest run per shard count — one-sided noise (CPU stolen by
	// neighbors) can only slow a trial down, so the max is the least
	// contaminated estimate. 1 when zero.
	Trials int
	// Clients is the closed-loop client count of the serving phases.
	Clients int
	// CacheSize is the service's LRU prediction cache capacity.
	CacheSize int
}

// DefaultShardConfig is the operating point of the committed benchmark
// artifact.
func DefaultShardConfig() ShardConfig {
	return ShardConfig{
		Seed:        1,
		Scale:       0.3,
		K:           10,
		Epsilon:     0.05,
		Sessions:    128,
		ShardCounts: []int{1, 2, 4, 8},
		InsertOps:   4096,
		Writers:     8,
		Trials:      7,
		Clients:     8,
	}
}

// ShardLevelResult is one row of the sweep: every number is measured on a
// fresh sharded bypass with S partitions over the shared collection.
type ShardLevelResult struct {
	Shards int `json:"shards"`
	// Insert microbench: InsertOps durable inserts (WAL + tree, ε = 0)
	// from Writers concurrent goroutines; best of Trials runs.
	InsertOps       int     `json:"insert_ops"`
	InsertWallSecs  float64 `json:"insert_wall_secs"`
	InsertsPerSec   float64 `json:"inserts_per_sec"`
	InsertTrials    int     `json:"insert_trials"`
	ShardsTouched   int     `json:"shards_touched"`
	MaxShardInserts int64   `json:"max_shard_inserts"`
	// Serving phases (same protocol as the serve benchmark: train =
	// oracle feedback loops with inserts, bypass = the same stream
	// re-issued twice with no feedback, answered through the cache).
	Train  ServePhaseResult `json:"train"`
	Bypass ServePhaseResult `json:"bypass"`
	// Cache retention: with the cache warmed by the bypass phase, one
	// more training session inserts into exactly one shard;
	// CacheRetention is the fraction of cached entries that survive.
	// All-or-nothing invalidation (S = 1) scores 0 here.
	CacheEntriesBefore int     `json:"cache_entries_before"`
	CacheEntriesAfter  int     `json:"cache_entries_after"`
	CacheRetention     float64 `json:"cache_retention"`
}

// ShardResult is the full benchmark output.
type ShardResult struct {
	Collection int                `json:"collection"`
	Dim        int                `json:"dim"`
	K          int                `json:"k"`
	Writers    int                `json:"writers"`
	Clients    int                `json:"clients"`
	Levels     []ShardLevelResult `json:"levels"`
}

// RunShard builds one collection and engine, then sweeps the shard
// counts; each level gets a fresh sharded bypass so levels are
// independent trials (unlike the serve benchmark's warm-up trajectory).
func RunShard(cfg ShardConfig) (ShardResult, error) {
	if cfg.Scale <= 0 {
		return ShardResult{}, fmt.Errorf("experiments: scale must be positive, got %v", cfg.Scale)
	}
	if cfg.Sessions <= 0 || cfg.K <= 0 || cfg.InsertOps <= 0 || cfg.Writers <= 0 || cfg.Clients <= 0 {
		return ShardResult{}, fmt.Errorf("experiments: non-positive shard-benchmark parameter: %+v", cfg)
	}
	if len(cfg.ShardCounts) == 0 {
		cfg.ShardCounts = []int{1, 2, 4, 8}
	}
	ds, err := dataset.Build(imagegen.IMSILike(cfg.Seed, cfg.Scale), histogram.DefaultExtractor)
	if err != nil {
		return ShardResult{}, err
	}
	codec, err := core.NewHistogramCodec(ds.Dim)
	if err != nil {
		return ShardResult{}, err
	}
	out := ShardResult{Collection: ds.Len(), Dim: ds.Dim, K: cfg.K, Writers: cfg.Writers, Clients: cfg.Clients}
	out.Levels = make([]ShardLevelResult, len(cfg.ShardCounts))
	for i, s := range cfg.ShardCounts {
		if s <= 0 {
			return ShardResult{}, fmt.Errorf("experiments: non-positive shard count %d", s)
		}
		out.Levels[i] = ShardLevelResult{Shards: s}
	}

	// Insert microbench first, with trials interleaved across the shard
	// counts: on a shared host the available CPU drifts over seconds, so
	// running every S inside each trial round exposes all levels to the
	// same noise windows and best-of-trials compares like with like.
	rng := rand.New(rand.NewSource(cfg.Seed + 7777))
	qs := make([][]float64, cfg.InsertOps)
	oqps := make([]core.OQP, cfg.InsertOps)
	for i := range qs {
		qs[i] = randomInterior(rng, codec.D())
		oqps[i] = core.OQP{Delta: randomVec(rng, codec.D(), 0.05), Weights: randomVec(rng, codec.P(), 0.5)}
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		for i := range out.Levels {
			level := &out.Levels[i]
			wall, infos, err := runInsertTrial(codec, cfg, level.Shards, qs, oqps)
			if err != nil {
				return ShardResult{}, err
			}
			level.InsertOps = cfg.InsertOps
			level.InsertTrials = trials
			if level.InsertWallSecs != 0 && wall.Seconds() >= level.InsertWallSecs {
				continue
			}
			level.InsertWallSecs = wall.Seconds()
			level.InsertsPerSec = float64(cfg.InsertOps) / wall.Seconds()
			level.ShardsTouched = 0
			level.MaxShardInserts = 0
			for _, info := range infos {
				if info.Inserts > 0 {
					level.ShardsTouched++
				}
				if info.Inserts > level.MaxShardInserts {
					level.MaxShardInserts = info.Inserts
				}
			}
		}
	}

	for i := range out.Levels {
		if err := runShardServePhases(ds, cfg, &out.Levels[i]); err != nil {
			return ShardResult{}, err
		}
	}
	return out, nil
}

// runShardServePhases fills in the serving-layer measurements of one
// level: a fresh in-memory S-shard stack from the production assembly
// (matching the serve benchmark's protocol so the S = 1 row is
// comparable to benchmarks/bench_serve.json), then the cache-retention
// instrument.
func runShardServePhases(ds *dataset.Dataset, cfg ShardConfig, level *ShardLevelResult) error {
	shards := level.Shards
	c, err := httpapi.Assemble("shard", ds, nil, httpapi.Config{
		K: cfg.K, Epsilon: cfg.Epsilon, CacheSize: cfg.CacheSize, Shards: shards,
		MaxSessions: closedLoopSessions,
	})
	if err != nil {
		return err
	}
	svc := c.Service
	srng := rand.New(rand.NewSource(cfg.Seed + int64(shards)*271))
	items, err := ds.SampleQueries(srng, cfg.Sessions)
	if err != nil {
		return err
	}
	if level.Train, level.Bypass, err = runPhasePair(svc, cfg.K, cfg.Clients, items); err != nil {
		return err
	}

	// --- Cache retention: the cache is warm from the bypass phase; drive
	// training sessions until one inserts, then compare occupancy. The
	// occupancy snapshots bracket exactly the inserting Close — sessions
	// only add cache entries at Open (Feedback never predicts), so the
	// only mutation between the two snapshots is that Close's
	// invalidation, and probe sessions whose insert was ε-rejected cannot
	// bias the ratio. The insert lands in exactly one shard, so S−1 of S
	// shards keep their entries (S = 1 drops everything — the
	// pre-sharding behavior).
	for tries := 0; tries < 64; tries++ {
		st, err := refineSession(svc, ds.Items[srng.Intn(ds.Len())], cfg.K, true, func(time.Duration) {})
		if err != nil {
			return err
		}
		before := svc.Stats().CacheEntries
		res, err := svc.Close(context.Background(), st.ID)
		if err != nil {
			return err
		}
		if res.Inserted {
			level.CacheEntriesBefore = before
			level.CacheEntriesAfter = svc.Stats().CacheEntries
			if before > 0 {
				level.CacheRetention = float64(level.CacheEntriesAfter) / float64(before)
			}
			return nil
		}
	}
	return fmt.Errorf("experiments: no training session inserted (shards=%d)", shards)
}

// runInsertTrial writes the point stream into a fresh durable sharded
// module from cfg.Writers concurrent goroutines and returns the wall
// time and final per-shard counters.
func runInsertTrial(codec core.HistogramCodec, cfg ShardConfig, shards int, qs [][]float64, oqps []core.OQP) (time.Duration, []shardedbypass.ShardInfo, error) {
	dir, err := os.MkdirTemp("", "fbshard-bench")
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	target, err := shardedbypass.Open(dir, codec.D(), codec.P(), core.Config{
		Epsilon:        0,
		DefaultWeights: codec.DefaultWeights(),
	}, shardedbypass.Options{Shards: shards})
	if err != nil {
		return 0, nil, err
	}
	defer target.Close()
	var next atomic.Int64
	var wg sync.WaitGroup
	werrs := make([]error, cfg.Writers)
	start := time.Now()
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				if _, err := target.Insert(qs[i], oqps[i]); err != nil {
					werrs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range werrs {
		if err != nil {
			return 0, nil, err
		}
	}
	return wall, target.ShardInfos(), nil
}

// randomInterior samples a strictly interior point of the standard
// simplex of dimension d (the tree's query domain).
func randomInterior(rng *rand.Rand, d int) []float64 {
	w := make([]float64, d+1)
	var sum float64
	for i := range w {
		w[i] = 0.05 + rng.Float64()
		sum += w[i]
	}
	q := make([]float64, d)
	for i := 0; i < d; i++ {
		q[i] = w[i+1] / sum
	}
	return q
}

func randomVec(rng *rand.Rand, n int, scale float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * scale
	}
	return v
}
