// Command fbbench regenerates every figure of the paper's evaluation
// (Figures 1 and 9–16) on the synthetic IMSI-like collection and prints
// the same series the paper plots.
//
// Usage:
//
//	fbbench -figure all -scale 1 -queries 1000 -k 50            # paper scale
//	fbbench -figure 10 -scale 0.3 -queries 700 -k 15            # quick look
//	fbbench -figure 15 -scale 0.3 -queries 700                  # savings
//
// Absolute values depend on the synthetic collection; the shapes — who
// wins, by roughly what factor, where curves cross — are the reproduction
// target (the drivers are in internal/experiments).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/knn"
	"repro/internal/obsv"
	"repro/internal/persist"
	"repro/internal/simplextree"
)

func main() {
	var (
		figure   = flag.String("figure", "all", "figure to regenerate: all, 1, 9, 10, 11, 12, 13, 14, 15, 16, knn (retrieval-core micro-benchmark), tree (Simplex Tree concurrency/throughput series), serve (closed-loop multi-session serving benchmark), shard (sharded bypass plane sweep over S=1/2/4/8), store (heap vs mmap feature-store backends), chaos (fault-injection: crash-schedule sweep, degraded-mode and quota governance), ann (IVF approximate tier: recall/latency/bandwidth sweep over nlist, nprobe and quantization), soak (duration-bounded load with registry/runtime sampling and interactivity-budget report), or lifecycle (bypass aging: drifting soak with aging on vs off, plus a compaction crash-schedule sweep on both durable layouts)")
		scale    = flag.Float64("scale", 0.3, "collection scale (1 = the paper's ~10,000 images)")
		queries  = flag.Int("queries", 700, "training queries to process")
		k        = flag.Int("k", 15, "results per query (paper: 50)")
		seed     = flag.Int64("seed", 1, "random seed")
		epsilon  = flag.Float64("epsilon", 0.05, "Simplex Tree insert threshold ε")
		numEval  = flag.Int("eval", 80, "evaluation queries for the k-sweep figures")
		save     = flag.String("save", "", "persist the trained Simplex Tree to this file (inspect with fbtree)")
		jsonPath = flag.String("json", "", "additionally write every printed series as machine-readable JSON to this file")

		soakDur     = flag.Duration("soak-duration", 10*time.Second, "soak figure: run length")
		soakClients = flag.Int("soak-clients", 8, "soak figure: closed-loop client count")
		soakSample  = flag.Duration("soak-sample", time.Second, "soak figure: registry/runtime sampling interval")

		lcInserts = flag.Int("lifecycle-inserts", 0, "lifecycle figure: drifting inserts per soak mode (0 = default)")
		lcHorizon = flag.Int("lifecycle-horizon", 0, "lifecycle figure: aging horizon in logical inserts (0 = default)")
		lcCompact = flag.Int("lifecycle-compact-every", 0, "lifecycle figure: inserts between aging compactions (0 = default)")
	)
	flag.Parse()

	cfg := experiments.Config{
		Seed:       *seed,
		Scale:      *scale,
		NumQueries: *queries,
		K:          *k,
		Epsilon:    *epsilon,
	}

	if *jsonPath != "" {
		report = &jsonReport{
			Meta: reportMeta{
				Scale: *scale, Queries: *queries, K: *k, Seed: *seed,
				Epsilon: *epsilon, Figure: *figure, Timestamp: time.Now().UTC().Format(time.RFC3339),
				Env: experiments.CollectEnvelope(),
			},
			Series: map[string][]jsonSeries{},
			KNN:    map[string]knnBenchResult{},
		}
	}
	start := time.Now()

	// Standalone figures build their own state and are not part of "all".
	standalone := []struct {
		name string
		run  func()
	}{
		{"knn", func() { runKNNBench(*scale, *k, *numEval, *seed) }},
		{"tree", func() { runTreeBench(*queries, *epsilon, *seed) }},
		{"serve", func() { runServeBench(*scale, *k, *numEval, *seed, *epsilon) }},
		{"shard", func() { runShardBench(*scale, *k, *numEval, *seed, *epsilon) }},
		{"store", func() { runStoreBench(*scale, *k, *numEval, *seed, *epsilon) }},
		{"chaos", func() { runChaosBench(*seed) }},
		{"ann", func() { runANNBench(*k, *seed) }},
		{"soak", func() { runSoakBench(*scale, *k, *seed, *epsilon, *soakClients, *soakDur, *soakSample) }},
		{"lifecycle", func() { runLifecycleBench(*seed, *lcInserts, uint64(*lcHorizon), *lcCompact) }},
	}
	// The paper's figures; those marked shared read one trained session.
	paper := []struct {
		name   string
		shared bool
		print  func(s *experiments.Session)
	}{
		{"1", true, printFigure1},
		{"9", true, printFigure9},
		{"10", true, printFigure10},
		{"11", true, func(s *experiments.Session) { printFigure11(s, *numEval) }},
		{"12", false, func(*experiments.Session) { printFigure12(cfg) }},
		{"13", false, func(*experiments.Session) { printFigure13(cfg, *numEval) }},
		{"14", true, printFigure14},
		{"15", false, func(*experiments.Session) { printFigure15(cfg) }},
		{"16", true, printFigure16},
	}
	want := func(f string) bool { return *figure == "all" || *figure == f }
	valid, needShared := []string{"all"}, false
	for _, f := range paper {
		valid = append(valid, f.name)
		needShared = needShared || f.shared && want(f.name)
	}
	for _, b := range standalone {
		if *figure == b.name {
			b.run()
			writeReport(*jsonPath)
			fmt.Printf("# total %.1fs\n", time.Since(start).Seconds())
			return
		}
	}
	if !slices.Contains(valid, *figure) {
		for _, b := range standalone {
			valid = append(valid, b.name)
		}
		fmt.Fprintf(os.Stderr, "fbbench: unknown -figure %q; valid: %s\n", *figure, strings.Join(valid, ", "))
		os.Exit(2)
	}

	var shared *experiments.Session
	if needShared {
		scfg := cfg
		scfg.MeasureSavings = want("10") // only Figure 15 needs it elsewhere
		fmt.Printf("# building collection (scale %.2f) and processing %d queries at k=%d ...\n", *scale, *queries, *k)
		var err error
		shared, err = experiments.NewSession(scfg)
		if err != nil {
			fail(err)
		}
		if err := shared.Run(); err != nil {
			fail(err)
		}
		fmt.Printf("# collection: %d images, tree: %d points, depth %d (%.1fs)\n\n",
			shared.DS.Len(), shared.Bypass.Stats().Points, shared.Bypass.Stats().Depth, time.Since(start).Seconds())
	}
	for _, f := range paper {
		if want(f.name) {
			section = "figure" + f.name
			f.print(shared)
		}
	}
	if *save != "" {
		if shared == nil {
			fail(fmt.Errorf("-save requires a figure that trains the shared session"))
		}
		if err := persist.SaveFile(*save, shared.Bypass.Tree()); err != nil {
			fail(err)
		}
		fmt.Printf("# saved trained Simplex Tree to %s\n", *save)
	}
	writeReport(*jsonPath)
	fmt.Printf("# total %.1fs\n", time.Since(start).Seconds())
}

// jsonReport accumulates everything printed for the -json flag.
type jsonReport struct {
	Meta      reportMeta                   `json:"meta"`
	Series    map[string][]jsonSeries      `json:"series,omitempty"`
	KNN       map[string]knnBenchResult    `json:"knn,omitempty"`
	Tree      map[string]treeBenchResult   `json:"tree,omitempty"`
	Serve     *experiments.ServeResult     `json:"serve,omitempty"`
	Shard     *experiments.ShardResult     `json:"shard,omitempty"`
	Store     *experiments.StoreResult     `json:"store,omitempty"`
	Chaos     *experiments.ChaosResult     `json:"chaos,omitempty"`
	ANN       *experiments.ANNResult       `json:"ann,omitempty"`
	Soak      *experiments.SoakResult      `json:"soak,omitempty"`
	Lifecycle *experiments.LifecycleResult `json:"lifecycle,omitempty"`
}

type reportMeta struct {
	Scale     float64              `json:"scale"`
	Queries   int                  `json:"queries"`
	K         int                  `json:"k"`
	Seed      int64                `json:"seed"`
	Epsilon   float64              `json:"epsilon"`
	Figure    string               `json:"figure"`
	Timestamp string               `json:"timestamp"`
	Env       experiments.Envelope `json:"env"`
	// Metrics snapshots the benchmark process's observability registry at
	// report-write time: for instrumented figures (soak) it carries every
	// series /metrics would have served; for the rest it records that no
	// instruments fired — either way the artifact is self-describing.
	Metrics *obsv.Snapshot `json:"metrics,omitempty"`
}

type jsonSeries struct {
	Label  string    `json:"label"`
	XLabel string    `json:"x_label"`
	X      []float64 `json:"x"`
	Y      []float64 `json:"y"`
}

type knnBenchResult struct {
	Collection int     `json:"collection"`
	Dim        int     `json:"dim"`
	K          int     `json:"k"`
	Queries    int     `json:"queries"`
	NsPerQuery float64 `json:"ns_per_query"`
	QPS        float64 `json:"qps"`
}

type treeBenchResult struct {
	Dim        int     `json:"dim"`
	OQPDim     int     `json:"oqp_dim"`
	Points     int     `json:"points"`
	Goroutines int     `json:"goroutines"`
	Ops        int     `json:"ops"`
	NsPerOp    float64 `json:"ns_per_op"`
	OpsPerSec  float64 `json:"ops_per_sec"`
}

// report is nil unless -json was given; section names the figure being
// printed so recorded series land under it. benchReg is the process's
// observability registry: instrumented figures register into it, and
// its snapshot lands in every JSON artifact's provenance envelope.
var (
	report   *jsonReport
	section  string
	benchReg = obsv.NewRegistry()
)

func record(xLabel string, series ...*eval.Series) {
	if report == nil {
		return
	}
	for _, s := range series {
		report.Series[section] = append(report.Series[section], jsonSeries{
			Label: s.Label, XLabel: xLabel, X: s.X, Y: s.Y,
		})
	}
}

func writeReport(path string) {
	if report == nil || path == "" {
		return
	}
	report.Meta.Metrics = benchReg.Snapshot()
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("# wrote JSON report to %s\n", path)
}

// runKNNBench measures the retrieval core in isolation: per-query latency
// of the cache-tiled SearchBatch, of lone Search calls, and of the naive
// per-row Metric path, under the default Euclidean metric and a
// re-weighted metric — the two retrieval shapes of the feedback loop.
func runKNNBench(scale float64, k, numQueries int, seed int64) {
	header(fmt.Sprintf("KNN retrieval core (scale %.2f, k = %d, %d queries)", scale, k, numQueries))
	ds, err := dataset.Build(imagegen.IMSILike(seed, scale), histogram.DefaultExtractor)
	if err != nil {
		fail(err)
	}
	scan, err := knn.NewScanBackend(ds.Matrix())
	if err != nil {
		fail(err)
	}
	qs := make([][]float64, numQueries)
	for i := range qs {
		qs[i] = ds.Items[(i*131)%ds.Len()].Feature
	}
	weights := make([]float64, ds.Dim)
	for i := range weights {
		weights[i] = 0.5 + float64(i%4)
	}
	wm, err := distance.NewWeightedEuclidean(weights)
	if err != nil {
		fail(err)
	}
	// lone runs the queries one Search call at a time — the shape of a
	// serving session, which has no batch to share a cache block with.
	lone := func(search func(q []float64, k int, m distance.Metric) ([]knn.Result, error), m distance.Metric) func() error {
		return func() error {
			for _, q := range qs {
				if _, err := search(q, k, m); err != nil {
					return err
				}
			}
			return nil
		}
	}
	runs := []struct {
		name   string
		search func() error
	}{
		{"batch-euclidean", func() error { _, err := scan.SearchBatch(qs, k, distance.Euclidean{}); return err }},
		{"batch-weighted", func() error { _, err := scan.SearchBatch(qs, k, wm); return err }},
		{"lone-weighted", lone(scan.Search, wm)},
		{"naive-euclidean", lone(scan.SearchNaive, distance.Euclidean{})},
	}
	fmt.Printf("%-18s %14s %12s\n", "mode", "ns/query", "queries/s")
	for _, r := range runs {
		t0 := time.Now()
		if err := r.search(); err != nil {
			fail(err)
		}
		elapsed := time.Since(t0)
		nsq := float64(elapsed.Nanoseconds()) / float64(len(qs))
		qps := 1e9 / nsq
		fmt.Printf("%-18s %14.0f %12.0f\n", r.name, nsq, qps)
		if report != nil {
			report.KNN[r.name] = knnBenchResult{
				Collection: ds.Len(), Dim: ds.Dim, K: k, Queries: len(qs),
				NsPerQuery: nsq, QPS: qps,
			}
		}
	}
	fmt.Println()
}

// runTreeBench measures the Simplex Tree prediction plane at the paper's
// operating point (D = 31, N = 62): serial vs. parallel Predict
// throughput under concurrent sessions, the batch API, the insert path,
// and WAL append cost. The read path is lock-shared and allocation-free,
// so parallel throughput should scale with cores (on a single-core host
// the series documents the absence of contention instead).
func runTreeBench(queries int, epsilon float64, seed int64) {
	const (
		d      = 31
		oqpDim = 62
		points = 1000
	)
	if queries < 1024 {
		queries = 1024
	}
	header(fmt.Sprintf("Simplex Tree prediction plane (D = %d, N = %d, %d stored points, %d queries)", d, oqpDim, points, queries))
	rng := rand.New(rand.NewSource(seed))
	interior := func() []float64 {
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
	newTree := func() *simplextree.Tree {
		tree, err := simplextree.New(geom.StandardSimplex(d), make([]float64, oqpDim), simplextree.Options{Epsilon: epsilon})
		if err != nil {
			fail(err)
		}
		return tree
	}
	randomValue := func() []float64 {
		v := make([]float64, oqpDim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}

	// Build the shared read-mostly tree and the query/insert workloads.
	tree := newTree()
	insertQs := make([][]float64, points)
	insertVs := make([][]float64, points)
	for i := 0; i < points; i++ {
		insertQs[i] = interior()
		insertVs[i] = randomValue()
		if _, err := tree.Insert(insertQs[i], insertVs[i]); err != nil {
			fail(err)
		}
	}
	qs := make([][]float64, queries)
	for i := range qs {
		qs[i] = interior()
	}

	reportRow := func(name string, ops, goroutines int, elapsed time.Duration) {
		nsPerOp := float64(elapsed.Nanoseconds()) / float64(ops)
		fmt.Printf("%-22s %4d goroutine(s) %14.0f ns/op %12.0f ops/s\n",
			name, goroutines, nsPerOp, 1e9/nsPerOp)
		if report != nil {
			if report.Tree == nil {
				report.Tree = map[string]treeBenchResult{}
			}
			report.Tree[name] = treeBenchResult{
				Dim: d, OQPDim: oqpDim, Points: points, Goroutines: goroutines,
				Ops: ops, NsPerOp: nsPerOp, OpsPerSec: 1e9 / nsPerOp,
			}
		}
	}

	// Serial predictions through the allocation-free read path.
	dst := make([]float64, oqpDim)
	t0 := time.Now()
	for _, q := range qs {
		if _, err := tree.PredictInto(dst, q); err != nil {
			fail(err)
		}
	}
	reportRow("predict-serial", len(qs), 1, time.Since(t0))

	// Concurrent sessions: G goroutines share the read lock.
	for _, g := range []int{2, 4, 8} {
		var wg sync.WaitGroup
		t0 = time.Now()
		chunk := (len(qs) + g - 1) / g
		errs := make([]error, g)
		for w := 0; w < g; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > len(qs) {
				hi = len(qs)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				out := make([]float64, oqpDim)
				for _, q := range qs[lo:hi] {
					if _, err := tree.PredictInto(out, q); err != nil {
						errs[w] = err
						return
					}
				}
			}(w, lo, hi)
		}
		wg.Wait()
		elapsed := time.Since(t0)
		for _, err := range errs {
			if err != nil {
				fail(err)
			}
		}
		reportRow(fmt.Sprintf("predict-parallel-%d", g), len(qs), g, elapsed)
	}

	// The batch API: one lock acquisition for the whole stream.
	t0 = time.Now()
	if _, _, err := tree.PredictBatch(qs); err != nil {
		fail(err)
	}
	reportRow("predict-batch", len(qs), runtime.GOMAXPROCS(0), time.Since(t0))

	// Insert throughput (exclusive lock) into a fresh tree.
	fresh := newTree()
	t0 = time.Now()
	if _, err := fresh.InsertBatch(insertQs, insertVs); err != nil {
		fail(err)
	}
	reportRow("insert-batch", points, 1, time.Since(t0))

	// WAL append cost: one record per accepted insert.
	walDir, err := os.MkdirTemp("", "fbbench-wal")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(walDir)
	wal, err := persist.OpenWAL(filepath.Join(walDir, "bench.fbwl"), d, oqpDim)
	if err != nil {
		fail(err)
	}
	defer wal.Close()
	t0 = time.Now()
	for i := 0; i < points; i++ {
		if err := wal.Append(insertQs[i], insertVs[i], uint64(i+1)); err != nil {
			fail(err)
		}
	}
	reportRow("wal-append", points, 1, time.Since(t0))
	fmt.Println()
}

// runServeBench measures the serving layer end to end: closed-loop
// oracle-driven sessions (Open → Feedback* → Close) against one shared
// service at increasing client counts. The service — and its Simplex
// Tree — is shared across levels, so the series doubles as a warm-up
// trajectory: later levels see higher warm-start and cache-hit rates.
// `sessions` rides the -eval flag (sessions per level).
func runServeBench(scale float64, k, sessions int, seed int64, epsilon float64) {
	cfg := experiments.DefaultServeConfig()
	cfg.Seed = seed
	cfg.Scale = scale
	cfg.K = k
	cfg.Epsilon = epsilon
	if sessions > 0 {
		cfg.SessionsPerLevel = sessions
	}
	header(fmt.Sprintf("Serving layer: closed-loop sessions (scale %.2f, k = %d, %d sessions/level)",
		scale, k, cfg.SessionsPerLevel))
	res, err := experiments.RunServe(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("# collection: %d images (%d bins)\n", res.Collection, res.Dim)
	fmt.Printf("# each level: train phase (oracle feedback loops, inserts) then bypass phase (same stream, no feedback)\n")
	fmt.Printf("%-8s %-8s %10s %12s %12s %12s %10s %10s %9s\n",
		"clients", "phase", "sessions", "sess/s", "p50(us)", "p99(us)", "cache-hit", "warm", "inserted")
	for _, lvl := range res.Levels {
		for _, row := range []struct {
			name string
			ph   experiments.ServePhaseResult
		}{{"train", lvl.Train}, {"bypass", lvl.Bypass}} {
			fmt.Printf("%-8d %-8s %10d %12.1f %12.0f %12.0f %9.1f%% %9.1f%% %9d\n",
				lvl.Clients, row.name, row.ph.Sessions, row.ph.SessionsPerSec, row.ph.P50Micros,
				row.ph.P99Micros, 100*row.ph.CacheHitRate, 100*row.ph.WarmRate, row.ph.Inserted)
		}
	}
	st := res.FinalStats
	fmt.Printf("# final: %d sessions, %d feedback rounds, %d/%d cache hits, %d inserts, tree %d points depth %d\n\n",
		st.Opened, st.Feedbacks, st.CacheHits, st.Predictions, st.Inserts, st.Tree.Points, st.Tree.Depth)
	if report != nil {
		report.Serve = &res
	}
}

// runSoakBench runs the soak instrument: duration-bounded closed-loop
// load over an instrumented service, with the interactivity-budget
// report and the sampled registry/runtime time series.
func runSoakBench(scale float64, k int, seed int64, epsilon float64, clients int, dur, sample time.Duration) {
	cfg := experiments.DefaultSoakConfig()
	cfg.Seed = seed
	cfg.Scale = scale
	cfg.K = k
	cfg.Epsilon = epsilon
	if clients > 0 {
		cfg.Clients = clients
	}
	if dur > 0 {
		cfg.Duration = dur
	}
	if sample > 0 {
		cfg.SampleEvery = sample
	}
	cfg.Obs = benchReg
	header(fmt.Sprintf("Soak: %d closed-loop clients for %s (scale %.2f, k = %d, sample %s)",
		cfg.Clients, cfg.Duration, scale, k, cfg.SampleEvery))
	res, err := experiments.RunSoak(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("# collection: %d images (%d bins)\n", res.Collection, res.Dim)
	fmt.Printf("# %d sessions (%d service calls) in %.1fs — %.1f sessions/s\n",
		res.Sessions, res.Ops, res.DurationSecs, res.SessionsPerSec)

	fmt.Printf("\n# interactivity budgets (complete sessions within wall-clock budget)\n")
	fmt.Printf("%-12s %10s %10s\n", "budget", "sessions", "fraction")
	for _, b := range res.Budgets {
		fmt.Printf("%-12s %10d %9.1f%%\n",
			fmt.Sprintf("%.0fms", 1000*b.BudgetSecs), b.Sessions, 100*b.Fraction)
	}

	fmt.Printf("\n# per-operation latency (from the observability registry)\n")
	fmt.Printf("%-10s %10s %12s %12s %12s\n", "op", "count", "p50(us)", "p95(us)", "p99(us)")
	for _, ol := range res.OpLatencies {
		fmt.Printf("%-10s %10d %12.0f %12.0f %12.0f\n",
			ol.Op, ol.Count, 1e6*ol.P50Secs, 1e6*ol.P95Secs, 1e6*ol.P99Secs)
	}

	fmt.Printf("\n# samples (cumulative counters + process state)\n")
	fmt.Printf("%-10s %10s %10s %12s %12s %11s %6s\n",
		"elapsed", "sessions", "ops", "heap(MB)", "rss(MB)", "goroutines", "gc")
	for _, s := range res.Samples {
		fmt.Printf("%-10s %10d %10d %12.1f %12.1f %11d %6d\n",
			fmt.Sprintf("%.1fs", s.ElapsedSecs), s.Sessions, s.Ops,
			float64(s.HeapAllocBytes)/(1<<20), float64(s.RSSBytes)/(1<<20), s.Goroutines, s.GCCycles)
	}
	st := res.FinalStats
	fmt.Printf("# final: %d sessions opened, %d feedback rounds, %d inserts, tree %d points depth %d\n\n",
		st.Opened, st.Feedbacks, st.Inserts, st.Tree.Points, st.Tree.Depth)
	if report != nil {
		report.Soak = &res
	}
}

// runShardBench measures the sharded bypass plane: for S = 1/2/4/8 (each
// a fresh module), durable insert throughput under concurrent writers,
// the serve benchmark's train/bypass phases through the serving layer,
// and the fraction of the prediction cache surviving a single-shard
// insert. S = 1 is the unsharded baseline (comparable to -figure serve);
// `sessions` rides the -eval flag.
func runShardBench(scale float64, k, sessions int, seed int64, epsilon float64) {
	cfg := experiments.DefaultShardConfig()
	cfg.Seed = seed
	cfg.Scale = scale
	cfg.K = k
	cfg.Epsilon = epsilon
	if sessions > 0 {
		cfg.Sessions = sessions
	}
	header(fmt.Sprintf("Sharded bypass plane (scale %.2f, k = %d, %d sessions/phase, %d writers, %d clients)",
		scale, k, cfg.Sessions, cfg.Writers, cfg.Clients))
	res, err := experiments.RunShard(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("# collection: %d images (%d bins); insert bench: %d durable ε=0 inserts (WAL+tree) from %d goroutines\n",
		res.Collection, res.Dim, cfg.InsertOps, cfg.Writers)
	fmt.Printf("%-7s %12s %8s %12s %12s %12s %12s %10s %10s\n",
		"shards", "inserts/s", "touched", "train s/s", "bypass s/s", "byp p50(us)", "byp p99(us)", "cache-hit", "retention")
	for _, lvl := range res.Levels {
		fmt.Printf("%-7d %12.0f %8d %12.1f %12.1f %12.0f %12.0f %9.1f%% %9.1f%%\n",
			lvl.Shards, lvl.InsertsPerSec, lvl.ShardsTouched,
			lvl.Train.SessionsPerSec, lvl.Bypass.SessionsPerSec,
			lvl.Bypass.P50Micros, lvl.Bypass.P99Micros,
			100*lvl.Bypass.CacheHitRate, 100*lvl.CacheRetention)
	}
	fmt.Println()
	if report != nil {
		report.Shard = &res
	}
}

// runStoreBench measures the multi-backend feature store: the same
// collection served heap-resident and mmap-resident (FBMX file) through
// the scan kernels, the tiled batch path, and the serve protocol.
// `sessions` rides the -eval flag.
func runStoreBench(scale float64, k, sessions int, seed int64, epsilon float64) {
	cfg := experiments.DefaultStoreConfig()
	cfg.Seed = seed
	cfg.Scale = scale
	cfg.K = k
	cfg.Epsilon = epsilon
	if sessions > 0 {
		cfg.Sessions = sessions
	}
	header(fmt.Sprintf("Multi-backend store: heap vs mmap (scale %.2f, k = %d, %d sessions/phase, %d clients)",
		scale, k, cfg.Sessions, cfg.Clients))
	res, err := experiments.RunStore(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("# collection: %d images (%d bins), FBMX file %d KiB\n", res.Collection, res.Dim, res.FileBytes/1024)
	fmt.Printf("%-8s %12s %12s %12s %12s %12s %12s %12s\n",
		"backend", "cold(us)", "warm(us)", "batch(us/q)", "train s/s", "bypass s/s", "byp p50(us)", "byp p99(us)")
	for _, b := range res.Backends {
		fmt.Printf("%-8s %12.0f %12.1f %12.1f %12.1f %12.1f %12.0f %12.0f\n",
			b.Backend, b.ColdScanMicros, b.WarmScanMicros, b.BatchMicrosPerQuery,
			b.Train.SessionsPerSec, b.Bypass.SessionsPerSec, b.Bypass.P50Micros, b.Bypass.P99Micros)
	}
	fmt.Printf("# mmap/heap warm tiled-batch ratio: %.3fx (acceptance bound 1.15x)\n\n", res.WarmRatio)
	if report != nil {
		report.Store = &res
	}
}

// runANNBench sweeps the IVF approximate retrieval tier: per corpus
// scale, an exact-scan baseline plus every (nlist, quant) index probed
// across the nprobe grid — recall@k against the exact top-k, batched
// and single-query latency, and the probe-stage bandwidth ratio.
// `-scale`/`-queries` do not apply: the sweep has its own 1x/10x corpus
// grid (see experiments.DefaultANNConfig).
func runANNBench(k int, seed int64) {
	cfg := experiments.DefaultANNConfig()
	cfg.Seed = seed
	cfg.K = k
	header(fmt.Sprintf("IVF approximate tier: recall/latency/bandwidth sweep (k = %d, %d queries/scale)", cfg.K, cfg.Queries))
	res, err := experiments.RunANN(cfg)
	if err != nil {
		fail(err)
	}
	for _, sc := range res.Scales {
		fmt.Printf("# scale %s: %d rows x %d dims; exact batch %.1f us/q, p50 %.0f us, p99 %.0f us\n",
			sc.Scale, sc.Rows, sc.Dim, sc.ExactBatchMicros, sc.ExactP50Micros, sc.ExactP99Micros)
		fmt.Printf("%-7s %-5s %7s %9s %9s %9s %12s %9s %7s\n",
			"nlist", "quant", "nprobe", "recall@k", "p50(us)", "p99(us)", "batch(us/q)", "speedup", "bw")
		for _, ix := range sc.Indexes {
			for _, pt := range ix.Points {
				fmt.Printf("%-7d %-5s %7d %9.4f %9.1f %9.1f %12.2f %8.1fx %6.0f%%\n",
					pt.NList, pt.Quant, pt.NProbe, pt.RecallAtK, pt.P50Micros, pt.P99Micros,
					pt.BatchMicrosPerQuery, pt.Speedup, 100*ix.BandwidthRatio)
			}
		}
		fmt.Printf("# best speedup at recall@k >= 0.95: %.1fx\n\n", sc.BestSpeedupAtRecall)
	}
	if report != nil {
		report.ANN = &res
	}
}

// runChaosBench runs the fault-injection figure: a crash-schedule sweep
// over every mutating filesystem operation of a durable insert workload
// (the durable module at 1 and at N shards, asserting zero acknowledged loss),
// degraded-mode serving with the journal disk gone bad, and quota
// governance — availability, error taxonomy and recovery times.
func runChaosBench(seed int64) {
	cfg := experiments.DefaultChaosConfig()
	cfg.Seed = seed
	header(fmt.Sprintf("Fault injection: crash schedules, degraded mode, quotas (D=%d P=%d, %d inserts/schedule, %d shards)",
		cfg.D, cfg.P, cfg.Inserts, cfg.Shards))
	res, err := experiments.RunChaos(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Println("# crash-schedule sweep: one fresh module + injected kill per mutating fs op, then recovery on a healthy disk")
	fmt.Printf("%-14s %13s %10s %10s %12s %12s %12s\n",
		"shards", "crash-points", "acked-lost", "rec-fail", "extra-replay", "rec-mean(us)", "rec-max(us)")
	for _, sweep := range res.CrashSweeps {
		fmt.Printf("%-14d %13d %10d %10d %12d %12.0f %12.0f\n",
			sweep.Shards, sweep.CrashPoints, sweep.AckedLost, sweep.RecoveryFailures,
			sweep.ExtraReplayed, sweep.RecoveryMeanMicros, sweep.RecoveryMaxMicros)
	}
	d := res.Degraded
	fmt.Println("\n# degraded mode: journal disk goes bad after the acked inserts; module must flip read-only, not lie")
	fmt.Printf("acked=%d  insert rejections: typed=%d untyped=%d  reads: %d/%d ok (availability %.3f, parity %v)\n",
		d.AckedBefore, d.TypedRejections, d.UntypedErrors, d.ReadsOK, d.ReadsAttempted, d.ReadAvailability, d.ParityOK)
	fmt.Printf("recovery on healthy disk: %.0fus, clean=%v\n", d.RecoveryMicros, d.RecoveredOK)
	q := res.Quota
	fmt.Println("\n# quota governance: vertex quota admits exactly the headroom; reads stay live at full occupancy")
	fmt.Printf("max_vertices=%d  accepted=%d  rejections: typed=%d untyped=%d  reads: %d/%d ok (availability %.3f, parity %v)\n",
		q.MaxVertices, q.Accepted, q.TypedRejections, q.UntypedErrors, q.ReadsOK, q.ReadsAttempted, q.ReadAvailability, q.ParityOK)
	fmt.Println()
	if report != nil {
		report.Chaos = &res
	}
}

// runLifecycleBench runs the bypass-lifecycle figure: the drifting soak
// with aging+compaction against an aging-off control (bounded memory at
// stable hit rate vs unbounded growth), then the compaction
// crash-schedule sweep at 1 and at N shards (recovery must land on a
// pre- or post-compaction census bitwise — never a hybrid).
func runLifecycleBench(seed int64, inserts int, horizon uint64, compactEvery int) {
	cfg := experiments.DefaultLifecycleConfig()
	cfg.Seed = seed
	if inserts > 0 {
		cfg.Inserts = inserts
	}
	if horizon > 0 {
		cfg.AgeHorizon = horizon
	}
	if compactEvery > 0 {
		cfg.CompactEvery = compactEvery
	}
	header(fmt.Sprintf("Lifecycle: aging horizon %d, compaction every %d of %d drifting inserts (D=%d P=%d)",
		cfg.AgeHorizon, cfg.CompactEvery, cfg.Inserts, cfg.D, cfg.P))
	res, err := experiments.RunLifecycle(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Println("# drifting soak: query window moves across the simplex; old vertices stop being reinforced")
	for _, s := range []experiments.LifecycleSeries{res.Aging, res.Control} {
		fmt.Printf("\n# mode %s (horizon %d): %d compactions reclaimed %d vertices; peak %d points, final %d\n",
			s.Mode, s.AgeHorizon, s.Compactions, s.Reclaimed, s.PeakPoints, s.FinalPoints)
		fmt.Printf("%-10s %10s %12s %12s %12s %9s\n", "inserts", "points", "bytes(KB)", "heap(MB)", "rss(MB)", "hit-rate")
		for _, p := range s.Samples {
			fmt.Printf("%-10d %10d %12.1f %12.1f %12.1f %8.1f%%\n",
				p.Inserts, p.Points, float64(p.SizeBytes)/1024,
				float64(p.HeapAllocBytes)/(1<<20), float64(p.RSSBytes)/(1<<20), 100*p.HitRate)
		}
	}
	fmt.Println("\n# compaction crash sweep: one fresh module + injected kill per mutating fs op, recovery checked against the healthy census sequence")
	fmt.Printf("%-14s %13s %10s %10s %8s %10s %10s\n",
		"shards", "crash-points", "rec-fail", "acked-lost", "hybrid", "post-comp", "in-flight")
	for _, sweep := range res.CrashSweeps {
		fmt.Printf("%-14d %13d %10d %10d %8d %10d %10d\n",
			sweep.Shards, sweep.CrashPoints, sweep.RecoveryFailures, sweep.AckedLost,
			sweep.HybridStates, sweep.PostCompaction, sweep.InFlightReplayed)
	}
	fmt.Println()
	if report != nil {
		report.Lifecycle = &res
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fbbench:", err)
	os.Exit(1)
}

func header(title string) {
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 72))
}

// printSeries renders several series sharing an X axis as one table and
// records them for the -json report.
func printSeries(xLabel string, series ...*eval.Series) {
	record(xLabel, series...)
	const colWidth = 28
	fmt.Printf("%-12s", xLabel)
	for _, s := range series {
		label := s.Label
		if len(label) > colWidth-2 {
			label = label[:colWidth-2]
		}
		fmt.Printf("%*s", colWidth, label)
	}
	fmt.Println()
	if len(series) == 0 || series[0].Len() == 0 {
		fmt.Println("(no data)")
		return
	}
	for i := range series[0].X {
		fmt.Printf("%-12.4g", series[0].X[i])
		for _, s := range series {
			if i < s.Len() {
				fmt.Printf("%*.4f", colWidth, s.Y[i])
			} else {
				fmt.Printf("%*s", colWidth, "-")
			}
		}
		fmt.Println()
	}
	fmt.Println()
}

func printFigure1(s *experiments.Session) {
	header("Figure 1: default vs. FeedbackBypass results for one query")
	// Pick the first Mammal query of the stream, echoing the paper's
	// example.
	itemIdx := -1
	for _, r := range s.Records {
		if r.Category == "Mammal" {
			itemIdx = r.ItemIndex
			break
		}
	}
	if itemIdx < 0 {
		itemIdx = s.Records[0].ItemIndex
	}
	res, err := experiments.Figure1(s, itemIdx, 5)
	if err != nil {
		fail(err)
	}
	fmt.Printf("query: item %d, category %s\n\n", res.QueryIndex, res.QueryCategory)
	fmt.Printf("%-28s %s\n", "Default results", "FeedbackBypass results")
	for i := range res.DefaultTop {
		d := res.DefaultTop[i]
		b := res.BypassTop[i]
		fmt.Printf("%-28s %s\n", lineOf(d), lineOf(b))
	}
	fmt.Printf("\nrelevant in top 5: default %d, FeedbackBypass %d\n\n", res.GoodDefault, res.GoodBypass)
}

func lineOf(l experiments.ResultLine) string {
	mark := " "
	if l.Good {
		mark = "*"
	}
	return fmt.Sprintf("%s %-10s/%-9s d=%.3f", mark, l.Category, l.Theme, l.Distance)
}

func printFigure9(s *experiments.Session) {
	header("Figure 9: sample images from the Fish category (theme diversity)")
	samples, err := experiments.Figure9(s, "Fish", 4)
	if err != nil {
		fail(err)
	}
	for _, smp := range samples {
		fmt.Printf("item %5d  theme=%-10s dominant bins=%v\n", smp.ItemIndex, smp.Theme, smp.DominantBins)
	}
	fmt.Println()
}

func printFigure10(s *experiments.Session) {
	res, err := experiments.Figure10(s)
	if err != nil {
		fail(err)
	}
	header(fmt.Sprintf("Figure 10a: precision vs. no. of queries (k = %d)", res.K))
	printSeries("queries", res.Precision.AlreadySeen, res.Precision.Bypass, res.Precision.Default)
	header("Figure 10b: precision gain (%) over Default")
	printSeries("queries", res.GainSeen, res.GainFB)
}

func printFigure11(s *experiments.Session, numEval int) {
	res, err := experiments.Figure11(s, nil, numEval)
	if err != nil {
		fail(err)
	}
	header("Figure 11a: precision vs. k (trained tree)")
	printSeries("k", res.Precision.AlreadySeen, res.Precision.Bypass, res.Precision.Default)
	header("Figure 11b: recall vs. k")
	printSeries("k", res.Recall.AlreadySeen, res.Recall.Bypass, res.Recall.Default)
	header("Figure 11c: precision vs. recall (X = recall)")
	printSeries("recall", res.PR.AlreadySeen, res.PR.Bypass, res.PR.Default)
}

func printFigure12(cfg experiments.Config) {
	fmt.Println("# Figure 12: training one session per k ... (slow)")
	res, err := experiments.Figure12(cfg, nil)
	if err != nil {
		fail(err)
	}
	header("Figure 12a: FeedbackBypass precision vs. no. of queries, per k")
	printSeries("queries", res.Precision...)
	header("Figure 12b: FeedbackBypass recall vs. no. of queries, per k")
	printSeries("queries", res.Recall...)
}

func printFigure13(cfg experiments.Config, numEval int) {
	fmt.Println("# Figure 13: training one session per k ... (slow)")
	res, err := experiments.Figure13(cfg, nil, nil, numEval)
	if err != nil {
		fail(err)
	}
	header("Figure 13a: precision vs. no. of retrieved objects, per training k")
	printSeries("retrieved", res.Precision...)
	header("Figure 13b: recall vs. no. of retrieved objects, per training k")
	printSeries("retrieved", res.Recall...)
}

func printFigure14(s *experiments.Session) {
	res, err := experiments.Figure14(s)
	if err != nil {
		fail(err)
	}
	header("Figure 14: per-category precision and recall")
	fmt.Printf("%-10s %8s %12s %12s %12s %12s %12s %12s\n",
		"category", "queries", "prec(seen)", "prec(FB)", "prec(def)", "rec(seen)", "rec(FB)", "rec(def)")
	for _, c := range res {
		fmt.Printf("%-10s %8d %12.4f %12.4f %12.4f %12.4f %12.4f %12.4f\n",
			c.Category, c.Queries, c.PrecSeen, c.PrecBypass, c.PrecDefault,
			c.RecallSeen, c.RecallBypass, c.RecallDefault)
	}
	fmt.Println()
}

func printFigure15(cfg experiments.Config) {
	fmt.Println("# Figure 15: savings sessions per k ... (slow)")
	res, err := experiments.Figure15(cfg, nil)
	if err != nil {
		fail(err)
	}
	header("Figure 15a: average saved feedback cycles vs. no. of queries")
	printSeries("queries", res.SavedCycles...)
	header("Figure 15b: average saved retrieved objects vs. no. of queries")
	printSeries("queries", res.SavedObjects...)
}

func printFigure16(s *experiments.Session) {
	res, err := experiments.Figure16(s)
	if err != nil {
		fail(err)
	}
	header("Figure 16: simplices traversed per query and tree depth")
	printSeries("queries", res.Traversed, res.Depth)
}
