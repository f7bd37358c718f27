// The ablation benchmarks called out in DESIGN.md: incremental vs. naive
// Simplex Tree lookup, the ε storage/accuracy trade-off and index
// structures for the query-processing step, plus component
// micro-benchmarks and the end-to-end per-query protocol. The paper's
// figures themselves are pinned by TestPaperFiguresGolden and regenerated
// by cmd/fbbench.
package feedbackbypass_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/feedback"
	"repro/internal/geom"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/knn"
	"repro/internal/persist"
	"repro/internal/simplextree"
	"repro/internal/store"
)

// benchConfig is the small-scale session configuration of
// BenchmarkEndToEndQuery.
func benchConfig() experiments.Config {
	return experiments.Config{
		Seed:       1,
		Scale:      0.08,
		NumQueries: 120,
		K:          10,
		Epsilon:    0.05,
	}
}

// --- Ablation: incremental barycentric descent vs. per-node solves. ---

// benchInterior draws a strictly interior point of the D-dimensional
// standard simplex.
func benchInterior(rng *rand.Rand, d int) []float64 {
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

func buildBenchTree(b *testing.B, d, points int) (*simplextree.Tree, [][]float64) {
	b.Helper()
	def := make([]float64, 2*d)
	tree, err := simplextree.New(d, def, simplextree.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < points; i++ {
		v := make([]float64, 2*d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if _, err := tree.Insert(benchInterior(rng, d), v); err != nil {
			b.Fatal(err)
		}
	}
	queries := make([][]float64, 256)
	for i := range queries {
		queries[i] = benchInterior(rng, d)
	}
	return tree, queries
}

func BenchmarkLookupIncremental(b *testing.B) {
	tree, queries := buildBenchTree(b, 31, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Predict(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrent prediction plane (paper-scale Simplex Tree, D = 31). ---

// predictBenchTree is the shared read-mostly tree of the prediction-plane
// benchmarks: paper-scale dimensions with 1000 stored points.
func predictBenchTree(b *testing.B) (*simplextree.Tree, [][]float64) {
	b.Helper()
	predictTreeOnce.Do(func() {
		d := 31
		def := make([]float64, 2*d)
		tree, err := simplextree.New(d, def, simplextree.Options{})
		if err != nil {
			predictTreeErr = err
			return
		}
		rng := rand.New(rand.NewSource(37))
		for i := 0; i < 1000; i++ {
			v := make([]float64, 2*d)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			if _, err := tree.Insert(benchInterior(rng, d), v); err != nil {
				predictTreeErr = err
				return
			}
		}
		qs := make([][]float64, 1024)
		for i := range qs {
			qs[i] = benchInterior(rng, d)
		}
		predictTree, predictQueries = tree, qs
	})
	if predictTreeErr != nil {
		b.Fatal(predictTreeErr)
	}
	return predictTree, predictQueries
}

var (
	predictTreeOnce sync.Once
	predictTree     *simplextree.Tree
	predictQueries  [][]float64
	predictTreeErr  error
)

// BenchmarkPredict measures the serial allocation-free read path — the
// baseline the parallel series is compared against.
func BenchmarkPredict(b *testing.B) {
	tree, queries := predictBenchTree(b)
	dst := make([]float64, tree.OQPDim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.PredictInto(dst, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictParallel runs the read path from GOMAXPROCS goroutines
// sharing the read lock — the concurrent-sessions shape. Compare ns/op
// against BenchmarkPredict: on a multi-core host throughput scales with
// cores because readers never exclude each other.
func BenchmarkPredictParallel(b *testing.B) {
	tree, queries := predictBenchTree(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]float64, tree.OQPDim())
		i := 0
		for pb.Next() {
			if _, err := tree.PredictInto(dst, queries[i%len(queries)]); err != nil {
				b.Error(err) // FailNow is not allowed on RunParallel workers
				return
			}
			i++
		}
	})
}

// BenchmarkPredictParallel8 pins the 8-goroutine series of the
// acceptance criterion regardless of GOMAXPROCS: one op = the whole
// 1024-query workload split across 8 goroutines (ns/query is reported).
func BenchmarkPredictParallel8(b *testing.B) {
	tree, queries := predictBenchTree(b)
	const workers = 8
	chunk := (len(queries) + workers - 1) / workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > len(queries) {
				hi = len(queries)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				dst := make([]float64, tree.OQPDim())
				for _, q := range queries[lo:hi] {
					if _, err := tree.PredictInto(dst, q); err != nil {
						b.Error(err)
						return
					}
				}
			}(lo, hi)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/query")
}

// BenchmarkWALAppend measures the durability tax per accepted insert:
// one fixed-size record (D=31, N=62) written to the journal.
func BenchmarkWALAppend(b *testing.B) {
	tree, err := simplextree.New(31, make([]float64, 62), simplextree.Options{})
	if err != nil {
		b.Fatal(err)
	}
	wal, err := persist.CreateWAL(nil, filepath.Join(b.TempDir(), "bench.fbwl"), tree)
	if err != nil {
		b.Fatal(err)
	}
	defer wal.Close()
	q := make([]float64, 31)
	v := make([]float64, 62)
	for i := range q {
		q[i] = float64(i) / 40
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v[0] = float64(i)
		if err := wal.Append(q, v, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCensusReplay prices the rebuild of a durable restart: a
// seeded D=31, N=62 tree of 1,500 stored points, logged as a census of
// the first 1,350 and a journal of the last 150 (the WAL a module writes
// between compactions), and read back with persist.LoadFile, which
// re-splits the census vertex by vertex in creation order and replays
// the journal.
func BenchmarkCensusReplay(b *testing.B) {
	path := censusReplayLog(b, censusReplayPoints)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := persist.LoadFile(path); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(censusReplayPoints), "points")
}

const censusReplayPoints = 1500

// censusReplayLog writes a log shaped like BenchmarkCensusReplay's, of
// the given number of stored points, and returns its path.
func censusReplayLog(tb testing.TB, points int) string {
	tb.Helper()
	const d = 31
	journaled := points / 10
	tree, err := simplextree.New(d, make([]float64, 2*d), simplextree.Options{Epsilon: 0.05})
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "tree.fbwl")
	var wal *persist.WAL
	rng := rand.New(rand.NewSource(71))
	for stored := 0; stored < points; {
		if stored == points-journaled && wal == nil {
			if wal, err = persist.CreateWAL(nil, path, tree); err != nil {
				tb.Fatal(err)
			}
			tree.SetObserver(wal.Append)
		}
		v := make([]float64, 2*d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		changed, err := tree.Insert(benchInterior(rng, d), v)
		if err != nil {
			tb.Fatal(err)
		}
		if changed {
			stored++
		}
	}
	if err := wal.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestCensusReplayByteBudget: one persist.LoadFile of
// BenchmarkCensusReplay's log allocates at most 5 MB, and at most 10%
// more than a load of the same tree logged as a census alone. The tree stores no per-node vertex
// ids (a lookup derives them): per-node id lists would add 6 MB. Loading
// sizes the census and the tree's arrays once, journal tail included: a
// replay that regrew them would add about 1 MB, a third.
func TestCensusReplayByteBudget(t *testing.T) {
	loadBytes := func(path string) (*simplextree.Tree, uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tree, err := persist.LoadFile(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return tree, after.TotalAlloc - before.TotalAlloc
	}
	tree, got := loadBytes(censusReplayLog(t, censusReplayPoints))
	if pts := tree.Stats().Points; pts != censusReplayPoints {
		t.Fatalf("the log holds %d points, want %d", pts, censusReplayPoints)
	}
	census := filepath.Join(t.TempDir(), "census.fbwl")
	if err := persist.SaveFile(census, tree); err != nil {
		t.Fatal(err)
	}
	_, ref := loadBytes(census)
	t.Logf("one LoadFile allocated %.2f MB; %.2f MB from a census alone", float64(got)/(1<<20), float64(ref)/(1<<20))
	const budget = 5 << 20
	if got > budget {
		t.Errorf("one LoadFile allocated %d bytes, budget %d", got, budget)
	}
	if got > ref+ref/10 {
		t.Errorf("one LoadFile allocated %d bytes, over 10%% above the %d of a census alone: the journal replay regrew the tree", got, ref)
	}
}

// TestCensusReplayAllocsFlat: the number of allocations one
// persist.LoadFile makes does not grow with the log. The census decodes
// straight into the vertex arrays the tree adopts, and the journal
// replay takes its buffers from the tree's scratch pool, so a log of 300
// points and one of 1,500 cost the same count. The count is
// process-wide, so goroutines other tests left behind can add a few; one
// allocation per census vertex or per journal record would add 1,200 or
// 120.
func TestCensusReplayAllocsFlat(t *testing.T) {
	allocs := func(points int) float64 {
		path := censusReplayLog(t, points)
		return testing.AllocsPerRun(3, func() {
			if _, err := persist.LoadFile(path); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(300), allocs(censusReplayPoints)
	t.Logf("one LoadFile makes %v allocations at 300 points, %v at %d", small, large, censusReplayPoints)
	if large > small+10 {
		t.Errorf("one LoadFile makes %v allocations at %d points and %v at 300: the count grows with the log", large, censusReplayPoints, small)
	}
}

func BenchmarkLookupNaive(b *testing.B) {
	tree, queries := buildBenchTree(b, 31, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.PredictNaive(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplexTreeInsertD31(b *testing.B) {
	d := 31
	rng := rand.New(rand.NewSource(11))
	def := make([]float64, 2*d)
	b.ResetTimer()
	var tree *simplextree.Tree
	for i := 0; i < b.N; i++ {
		if i%500 == 0 {
			// Re-create periodically so depth stays representative.
			var err error
			tree, err = simplextree.New(d, def, simplextree.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		v := make([]float64, 2*d)
		v[0] = float64(i)
		if _, err := tree.Insert(benchInterior(rng, d), v); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: ε storage/accuracy trade-off (§4.2). ---

func BenchmarkInsertEpsilonSweep(b *testing.B) {
	for _, eps := range []float64{0, 0.1, 0.5, 2} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			d := 15
			rng := rand.New(rand.NewSource(13))
			def := make([]float64, d)
			var stored int
			b.ResetTimer()
			var tree *simplextree.Tree
			count := 0
			for i := 0; i < b.N; i++ {
				if count == 0 {
					var err error
					tree, err = simplextree.New(d, def, simplextree.Options{Epsilon: eps})
					if err != nil {
						b.Fatal(err)
					}
				}
				w := make([]float64, d+1)
				var sum float64
				for j := range w {
					w[j] = 0.05 + rng.Float64()
					sum += w[j]
				}
				q := make([]float64, d)
				for j := 0; j < d; j++ {
					q[j] = w[j+1] / sum
				}
				v := make([]float64, d)
				for j := range v {
					v[j] = rng.NormFloat64() // values vary at σ=1: ε carves real tiers
				}
				if _, err := tree.Insert(q, v); err != nil {
					b.Fatal(err)
				}
				count++
				if count == 400 {
					stored = tree.Stats().Points
					count = 0
				}
			}
			if stored == 0 && tree != nil {
				stored = tree.Stats().Points
			}
			b.ReportMetric(float64(stored), "stored-per-400")
		})
	}
}

// --- Ablation: query-processing index structures at D = 32. ---

// benchCollection returns the feature matrix of a collection with ~n
// images. The paper-scale collection (n = 9800, the cardinality of §5's
// IMSI subset) is built once and shared across the KNN benchmarks.
func benchCollection(b *testing.B, n int) [][]float64 {
	b.Helper()
	if n == paperScaleN {
		paperCollectionOnce.Do(func() {
			paperCollection, paperCollectionErr = buildCollection(n)
		})
		if paperCollectionErr != nil {
			b.Fatal(paperCollectionErr)
		}
		return paperCollection
	}
	data, err := buildCollection(n)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

const paperScaleN = 9800

var (
	paperCollectionOnce sync.Once
	paperCollection     [][]float64
	paperCollectionErr  error
)

// newScan builds an exact scan over a copy of rows.
func newScan(rows [][]float64) (*knn.Scan, error) {
	mat, err := store.FromRows(rows)
	if err != nil {
		return nil, err
	}
	return knn.NewScanBackend(mat)
}

func buildCollection(n int) ([][]float64, error) {
	ds, err := dataset.Build(imagegen.IMSILike(5, float64(n)/9800.0), histogram.DefaultExtractor)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, ds.Len())
	for i := range rows {
		rows[i] = ds.Matrix().Row(i)
	}
	return rows, nil
}

// benchWeighted is the re-weighted metric of the weighted benchmarks: a
// fixed, uneven weight per dimension, the shape feedback rounds produce.
func benchWeighted(b *testing.B, dim int) distance.Metric {
	w := make([]float64, dim)
	for i := range w {
		w[i] = 0.5 + float64(i%4)
	}
	wm, err := distance.NewWeightedEuclidean(w)
	if err != nil {
		b.Fatal(err)
	}
	return wm
}

// benchEuclidean is the paper's default distance, the Euclidean one, as
// the engine serves it: the weighted Euclidean metric with unit weights.
func benchEuclidean(b *testing.B, dim int) distance.Metric {
	w := make([]float64, dim)
	for i := range w {
		w[i] = 1
	}
	m, err := distance.NewWeightedEuclidean(w)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkKNNScanNaive measures the generic virtual-dispatch scan (one
// Metric.Distance call and one sqrt per database vector) on the same
// query stream — the reference the kernel's speedup is quoted against:
// each naive search streams the whole slab and does full-dimension work
// per row.
func BenchmarkKNNScanNaive(b *testing.B) {
	data := benchCollection(b, paperScaleN)
	scan, err := newScan(data)
	if err != nil {
		b.Fatal(err)
	}
	m := benchEuclidean(b, len(data[0]))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scan.SearchNaive(data[(i*131)%len(data)], 50, m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
}

// BenchmarkKNNScanSingle measures one kernel query at k = 50 under the
// Euclidean metric (unit weights, as every session's open retrieves):
// best-first over the tiles, stopping early.
func BenchmarkKNNScanSingle(b *testing.B) {
	data := benchCollection(b, paperScaleN)
	scan, err := newScan(data)
	if err != nil {
		b.Fatal(err)
	}
	m := benchEuclidean(b, len(data[0]))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scan.Search(data[(i*131)%len(data)], 50, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNNScanWeighted runs the kernel path under a re-weighted
// metric — the shape of every post-feedback retrieval in the loop — at
// paper scale and at the 97,910 rows of the bench/ `bigscan` workload
// (fbserve -scale 10, k = 10), so the lone-query cost there is readable
// without the HTTP harness. The collection is stored category by
// category; "shuffled" is the same rows and queries in a seeded random
// order. The scan lays its tiles out in its own k-d order either way
// (knn.TileOrder), so the two differ only in which rows share a tile's
// ties and in how the backend's memory is visited.
func BenchmarkKNNScanWeighted(b *testing.B) {
	for _, c := range []struct {
		scale, k int
		shuffled bool
	}{{1, 50, false}, {10, 10, false}, {10, 10, true}} {
		name := fmt.Sprintf("scale=%d/k=%d", c.scale, c.k)
		if c.shuffled {
			name += "/shuffled"
		}
		b.Run(name, func(b *testing.B) {
			data := benchCollection(b, c.scale*paperScaleN)
			rows := data
			if c.shuffled {
				rows = slices.Clone(data)
				rand.New(rand.NewSource(1)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			}
			scan, err := newScan(rows)
			if err != nil {
				b.Fatal(err)
			}
			wm := benchWeighted(b, len(data[0]))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scan.Search(data[(i*131)%len(data)], c.k, wm); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(data)), "rows")
		})
	}
}

// BenchmarkKNNScanBuild prices knn.NewScanBackend over the IMSILike(1,
// scale) collection — scale 10 is the 97,910 rows the bench/ `bigscan`
// workload serves — with and without its scan order: "order" is
// knn.TileOrder alone, the k-d partition whose leaves are the tiles;
// "scan" is the whole build, that order and then the head slab and tile
// boxes gathered through it. The build without the order is the
// difference of the two.
func BenchmarkKNNScanBuild(b *testing.B) {
	for _, scale := range []float64{1, 10} {
		ds, err := dataset.Build(imagegen.IMSILike(1, scale), histogram.DefaultExtractor)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("scale=%g/order", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				knn.TileOrder(ds.Matrix())
			}
			b.ReportMetric(float64(ds.Len()), "rows")
		})
		b.Run(fmt.Sprintf("scale=%g/scan", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := knn.NewScanBackend(ds.Matrix()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ds.Len()), "rows")
		})
	}
}

// BenchmarkKNNScanOracle replays, one lone Search per op, the retrievals
// of 200 seeded oracle feedback sessions over the bench/ `bigscan`
// collection (IMSILike(1, 10): the 97,910 rows `fbserve -scale 10`
// serves), k = 10: each session's open under uniform weights and its
// feedback rounds under the metrics experiments.OracleLoop learns.
// Besides ns/op it reports cpu-ns/op, user plus system time from
// getrusage: what the server pays, which would also count any goroutine
// a search took beyond its caller (none does).
func BenchmarkKNNScanOracle(b *testing.B) {
	oracleOnce.Do(func() { oracleScan, oracleLog, oracleErr = recordOracleSearches(1, 10, 200, 10) })
	if oracleErr != nil {
		b.Fatal(oracleErr)
	}
	var before, after syscall.Rusage
	b.ResetTimer()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &before); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s := oracleLog[i%len(oracleLog)]
		if _, err := oracleScan.Search(s.q, 10, s.m); err != nil {
			b.Fatal(err)
		}
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &after); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cpuTime(after)-cpuTime(before))/float64(b.N), "cpu-ns/op")
	b.ReportMetric(float64(len(oracleLog)), "searches")
}

var (
	oracleOnce sync.Once
	oracleScan *knn.Scan
	oracleLog  []oracleSearch
	oracleErr  error
)

// oracleSearch is one recorded retrieval: a query point and its metric.
type oracleSearch struct {
	q []float64
	m distance.Metric
}

// searchRecorder is the engine's searcher with every lone Search logged.
type searchRecorder struct {
	knn.Searcher
	log []oracleSearch
}

func (r *searchRecorder) Search(q []float64, k int, m distance.Metric) ([]knn.Result, error) {
	r.log = append(r.log, oracleSearch{slices.Clone(q), m})
	return r.Searcher.Search(q, k, m)
}

// recordOracleSearches builds IMSILike(seed, scale) and runs the category
// oracle's feedback loop from `sessions` seeded query items, returning
// the exact scan and every search the loops made.
func recordOracleSearches(seed int64, scale float64, sessions, k int) (*knn.Scan, []oracleSearch, error) {
	ds, err := dataset.Build(imagegen.IMSILike(seed, scale), histogram.DefaultExtractor)
	if err != nil {
		return nil, nil, err
	}
	scan, err := knn.NewScanBackend(ds.Matrix())
	if err != nil {
		return nil, nil, err
	}
	rec := &searchRecorder{Searcher: scan}
	eng, err := engine.New(ds, engine.Options{Searcher: rec})
	if err != nil {
		return nil, nil, err
	}
	items, err := ds.SampleQueries(rand.New(rand.NewSource(seed)), sessions)
	if err != nil {
		return nil, nil, err
	}
	for _, i := range items {
		item := ds.Items[i]
		if _, err := experiments.OracleLoop(eng, item.Category, item.Feature, eng.UniformWeights(), k); err != nil {
			return nil, nil, err
		}
	}
	return scan, rec.log, nil
}

// BenchmarkDatasetBuild renders and extracts the IMSILike(1, scale)
// collection — scale 10 is the 97,910 rows `fbserve -scale 10` builds
// before it serves, nearly all of the bench/ `bigscan` set-up time. It
// reports cpu-ns/op from getrusage beside ns/op: Build runs one worker
// per GOMAXPROCS.
func BenchmarkDatasetBuild(b *testing.B) {
	for _, scale := range []float64{1, 10} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			cfg := imagegen.IMSILike(1, scale)
			var before, after syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &before); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := dataset.Build(cfg, histogram.DefaultExtractor); err != nil {
					b.Fatal(err)
				}
			}
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &after); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(cpuTime(after)-cpuTime(before))/float64(b.N), "cpu-ns/op")
		})
	}
}

// cpuTime is the user plus system time of a getrusage sample, in ns.
func cpuTime(ru syscall.Rusage) int64 {
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// --- Component micro-benchmarks. ---

func BenchmarkBarycentricSolveD31(b *testing.B) {
	s := geom.StandardSimplex(31)
	q := make([]float64, 31)
	for i := range q {
		q[i] = 1.0 / 40
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Barycentric(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeedbackRefine(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	results := make([][]float64, 50)
	scores := make([]float64, 50)
	for i := range results {
		v := make([]float64, 32)
		for j := range v {
			v[j] = rng.Float64()
		}
		results[i] = v
		if i%3 == 0 {
			scores[i] = feedback.ScoreGood
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := feedback.Refine(results, scores); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistogramExtract(b *testing.B) {
	imgs, err := imagegen.Generate(imagegen.Config{
		Seed: 1, ImageW: 24, ImageH: 24,
		Categories: []imagegen.Category{{
			Name: "X", Count: 1,
			Themes: []imagegen.Theme{{Name: "t", Blobs: []imagegen.Blob{{Hue: 100, HueStd: 10, Sat: 0.5, SatStd: 0.1, Weight: 1}}}},
		}},
	}, histogram.DefaultExtractor)
	if err != nil {
		b.Fatal(err)
	}
	hist := make([]float64, histogram.DefaultExtractor.Bins())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := histogram.DefaultExtractor.ExtractInto(hist, imgs[0].Image); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistogramCodecRoundTrip(b *testing.B) {
	codec, err := core.NewHistogramCodec(32)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	q := make([]float64, 32)
	var sum float64
	for i := range q {
		q[i] = 0.1 + rng.Float64()
		sum += q[i]
	}
	for i := range q {
		q[i] /= sum
	}
	w := make([]float64, 32)
	for i := range w {
		w[i] = 0.25 + rng.Float64()*4
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oqp, err := codec.EncodeOQP(q, q, w)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := codec.DecodeOQP(q, oqp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndQuery measures the full per-query protocol: predict,
// retrieve, feedback loop, insert — the unit of work of Figures 10–15.
func BenchmarkEndToEndQuery(b *testing.B) {
	s, err := experiments.NewSession(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	qs, err := s.DS.SampleQueries(rand.New(rand.NewSource(29)), 512)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ProcessQuery(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
	var precision eval.Running
	for _, r := range s.Records {
		precision.Add(r.PrecisionBypass())
	}
	b.ReportMetric(precision.Mean(), "avg-bypass-precision")
}
