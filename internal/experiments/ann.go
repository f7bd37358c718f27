package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/ann"
	"repro/internal/distance"
	"repro/internal/knn"
	"repro/internal/store"
)

// ANNConfig drives the IVF approximate-retrieval benchmark: a clustered
// synthetic collection at one or more scales, an exact-scan baseline,
// and a sweep over (nlist, nprobe, quantization) measuring recall@k
// against that baseline alongside latency and slab bandwidth.
type ANNConfig struct {
	// Seed makes the collection, query stream and k-means training
	// deterministic (the generator is a pinned splitmix64, not
	// math/rand, so committed figures survive Go releases).
	Seed int64
	// Dim is the feature dimensionality (default 32, matching the
	// paper's histogram bins).
	Dim int
	// Clusters is the number of Gaussian modes in the synthetic data.
	Clusters int
	// K is the result-list size recall is measured at.
	K int
	// Queries sizes the measurement stream per scale.
	Queries int
	// Scales are the corpus sizes swept, each with its own nlist grid.
	Scales []ANNScaleConfig
	// NProbes is the probe-width sweep applied to every built index.
	NProbes []int
	// Quants is the slab-encoding sweep.
	Quants []ann.Quant
}

// ANNScaleConfig is one corpus size in the sweep.
type ANNScaleConfig struct {
	Label  string // "1x", "10x"
	Rows   int
	NLists []int
}

// DefaultANNConfig is the operating point of the committed benchmark
// artifact: 1x ≈ the paper's collection cardinality, 10x stresses the
// bandwidth argument where the approximate tier pays off.
func DefaultANNConfig() ANNConfig {
	return ANNConfig{
		Seed:     1,
		Dim:      32,
		Clusters: 96,
		K:        10,
		Queries:  256,
		Scales: []ANNScaleConfig{
			{Label: "1x", Rows: 9800, NLists: []int{64, 256}},
			{Label: "10x", Rows: 98000, NLists: []int{256, 1024}},
		},
		NProbes: []int{4, 8, 16, 32},
		Quants:  []ann.Quant{ann.QuantF32, ann.QuantI8},
	}
}

// ANNPointResult is one (scale, nlist, nprobe, quant) cell of the sweep.
type ANNPointResult struct {
	NList  int    `json:"nlist"`
	NProbe int    `json:"nprobe"`
	Quant  string `json:"quant"`
	// RecallAtK is mean |approx ∩ exact| / k over the query stream.
	RecallAtK float64 `json:"recall_at_k"`
	// P50/P99Micros are single-query latencies through Index.Search.
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	// Speedup is the exact scan's p50 divided by this cell's p50.
	Speedup float64 `json:"speedup_vs_exact"`
}

// ANNIndexResult groups the nprobe sweep of one built index and its
// one-time costs (training, slab footprint).
type ANNIndexResult struct {
	NList int    `json:"nlist"`
	Quant string `json:"quant"`
	// BuildMillis covers k-means training, assignment and slab encoding.
	BuildMillis float64 `json:"build_ms"`
	// SlabBytes is the probe-stage working set; BandwidthRatio divides
	// it by the exact scan's 8·n·dim float64 footprint.
	SlabBytes      int64            `json:"slab_bytes"`
	BandwidthRatio float64          `json:"bandwidth_ratio"`
	Points         []ANNPointResult `json:"points"`
}

// ANNScaleResult is one corpus size: the exact baseline plus every
// index swept at that scale.
type ANNScaleResult struct {
	Scale string `json:"scale"`
	Rows  int    `json:"rows"`
	Dim   int    `json:"dim"`
	// Exact-scan baseline: single-query latencies over the same query
	// stream.
	ExactP50Micros float64          `json:"exact_p50_us"`
	ExactP99Micros float64          `json:"exact_p99_us"`
	Indexes        []ANNIndexResult `json:"indexes"`
	// BestSpeedupAtRecall is the largest p50 speedup among cells with
	// recall@k ≥ 0.95.
	BestSpeedupAtRecall float64 `json:"best_speedup_recall95"`
}

// ANNResult is the full benchmark output.
type ANNResult struct {
	Env     Envelope         `json:"env"`
	K       int              `json:"k"`
	Queries int              `json:"queries"`
	Seed    int64            `json:"seed"`
	Scales  []ANNScaleResult `json:"scales"`
}

// annRNG is a splitmix64 stream; the experiments package keeps its own
// copy so committed figures do not depend on math/rand's unspecified
// stream stability across Go releases.
type annRNG struct{ s uint64 }

func (r *annRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *annRNG) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// norm is an Irwin–Hall approximate standard normal (sum of 12
// uniforms, centred) — plenty for benchmark data and fully pinned.
func (r *annRNG) norm() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.float64()
	}
	return s - 6
}

// annCollection generates rows around `clusters` Gaussian modes plus a
// query stream of perturbed members, all from one seeded stream.
func annCollection(rows, dim, clusters, queries int, seed int64) ([][]float64, [][]float64) {
	rng := &annRNG{s: uint64(seed)}
	centers := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = 20 * rng.float64()
		}
	}
	data := make([][]float64, rows)
	for i := range data {
		ctr := centers[i%clusters]
		row := make([]float64, dim)
		for j := range row {
			row[j] = ctr[j] + rng.norm()
		}
		data[i] = row
	}
	qs := make([][]float64, queries)
	for i := range qs {
		base := data[int(rng.next()%uint64(rows))]
		q := make([]float64, dim)
		for j := range q {
			q[j] = base[j] + 0.25*rng.norm()
		}
		qs[i] = q
	}
	return data, qs
}

// timeSearches answers every query through s, one Search at a time,
// after a warm-up pass over the first 32 so first-touch cost does not
// land in the timings. It returns the result lists and the p50 and p99
// latencies in µs.
func timeSearches(s knn.Searcher, qs [][]float64, k int, m distance.Metric) (res [][]knn.Result, p50, p99 float64, err error) {
	for _, q := range qs[:min(len(qs), 32)] {
		if _, err := s.Search(q, k, m); err != nil {
			return nil, 0, 0, err
		}
	}
	res = make([][]knn.Result, len(qs))
	lats := make([]float64, len(qs))
	for i, q := range qs {
		t0 := time.Now()
		if res[i], err = s.Search(q, k, m); err != nil {
			return nil, 0, 0, err
		}
		lats[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	sort.Float64s(lats)
	return res, lats[len(lats)/2], lats[len(lats)*99/100], nil
}

// RunANN builds the clustered collection at each scale, measures the
// exact-scan baseline, then sweeps IVF indexes over (nlist, quant) —
// reprobing each built index across the nprobe grid — and reports
// recall@k, latency and slab bandwidth per cell.
func RunANN(cfg ANNConfig) (ANNResult, error) {
	if cfg.Dim <= 0 || cfg.K <= 0 || cfg.Queries <= 0 || cfg.Clusters <= 0 {
		return ANNResult{}, fmt.Errorf("experiments: Dim, K, Queries and Clusters must be positive")
	}
	if len(cfg.Scales) == 0 || len(cfg.NProbes) == 0 || len(cfg.Quants) == 0 {
		return ANNResult{}, fmt.Errorf("experiments: empty sweep")
	}
	out := ANNResult{Env: CollectEnvelope(), K: cfg.K, Queries: cfg.Queries, Seed: cfg.Seed}
	metric := distance.Euclidean{}

	for _, sc := range cfg.Scales {
		if sc.Rows < cfg.Clusters {
			return ANNResult{}, fmt.Errorf("experiments: scale %s has %d rows < %d clusters", sc.Label, sc.Rows, cfg.Clusters)
		}
		data, qs := annCollection(sc.Rows, cfg.Dim, cfg.Clusters, cfg.Queries, cfg.Seed)
		backend, err := store.FromRows(data)
		if err != nil {
			return ANNResult{}, err
		}
		scan, err := knn.NewScanBackend(backend)
		if err != nil {
			return ANNResult{}, err
		}
		sres := ANNScaleResult{Scale: sc.Label, Rows: sc.Rows, Dim: cfg.Dim}

		// Exact baseline: ground truth for recall, and the latency the
		// speedup column is measured against.
		truth, p50, p99, err := timeSearches(scan, qs, cfg.K, metric)
		if err != nil {
			return ANNResult{}, err
		}
		sres.ExactP50Micros, sres.ExactP99Micros = p50, p99
		truthSets := make([]map[int]bool, len(truth))
		for i, rs := range truth {
			truthSets[i] = make(map[int]bool, len(rs))
			for _, r := range rs {
				truthSets[i][r.Index] = true
			}
		}
		exactBytes := float64(8 * sc.Rows * cfg.Dim)

		for _, nlist := range sc.NLists {
			for _, quant := range cfg.Quants {
				t0 := time.Now()
				idx, err := ann.Build(backend, ann.Options{
					NList: nlist, NProbe: cfg.NProbes[0], Quant: quant, Seed: cfg.Seed,
				})
				if err != nil {
					return ANNResult{}, fmt.Errorf("experiments: build nlist=%d quant=%s: %w", nlist, quant, err)
				}
				ires := ANNIndexResult{
					NList:       nlist,
					Quant:       quant.String(),
					BuildMillis: float64(time.Since(t0).Nanoseconds()) / 1e6,
					SlabBytes:   idx.SlabBytes(),
				}
				ires.BandwidthRatio = float64(ires.SlabBytes) / exactBytes

				for _, nprobe := range cfg.NProbes {
					if nprobe > nlist {
						continue
					}
					if err := idx.SetNProbe(nprobe); err != nil {
						return ANNResult{}, err
					}
					pt := ANNPointResult{NList: nlist, NProbe: nprobe, Quant: quant.String()}

					got, p50, p99, err := timeSearches(idx, qs, cfg.K, metric)
					if err != nil {
						return ANNResult{}, err
					}
					pt.P50Micros, pt.P99Micros = p50, p99
					if p50 > 0 {
						pt.Speedup = sres.ExactP50Micros / p50
					}
					hits := 0
					for i, rs := range got {
						for _, r := range rs {
							if truthSets[i][r.Index] {
								hits++
							}
						}
					}
					pt.RecallAtK = float64(hits) / float64(len(qs)*cfg.K)
					if pt.RecallAtK >= 0.95 {
						sres.BestSpeedupAtRecall = math.Max(sres.BestSpeedupAtRecall, pt.Speedup)
					}
					ires.Points = append(ires.Points, pt)
				}
				sres.Indexes = append(sres.Indexes, ires)
			}
		}
		out.Scales = append(out.Scales, sres)
	}
	return out, nil
}
