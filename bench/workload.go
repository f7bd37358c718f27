package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/imagegen"
)

const (
	resultsK       = 10 // result-list size of every session
	collectionSeed = 1  // the synthetic collection is fixed; -seed drives item selection only
	thrClients     = 2  // closed-loop clients of the throughput phase (= nproc of the reference box)
	fullSeconds    = 30 // the -seconds value at which the counts below apply unscaled
)

// workload is one traffic mix: a server configuration plus the shape of
// the session script replayed against it. Session counts are the ones a
// -seconds 30 run uses; every count (and the durable compaction period)
// scales by seconds/30, so the work of a run is a pure function of
// (-seed, -seconds, workload) and never of how many sessions happened
// to fit in a time window.
type workload struct {
	name  string
	scale float64 // fbserve -scale: collection size, 1 ≈ 9.8k rows
	warm  int     // warm-up sessions: executed, excluded from every metric
	lat   int     // latency-phase sessions, 1 client
	thr   int     // throughput-phase sessions, thrClients clients, script split by parity
	// pool > 0 selects the revisit shape: set-up trains this many items
	// with full oracle sessions, opens each once to fill the prediction
	// cache, and measured sessions draw from the pool with replacement.
	// The pool does not scale with -seconds: it is sized against the
	// server's 1024-entry prediction cache, not against the run.
	pool int
	// durable serves from a WAL-backed module with fsync per accepted
	// insert, a one-round feedback budget and periodic compaction.
	durable bool
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{name: "explore", scale: 2, warm: 100, lat: 2000, thr: 2400},
	{name: "revisit", scale: 0.3, warm: 100, lat: 4000, thr: 6000, pool: 512},
	{name: "bigscan", scale: 10, warm: 50, lat: 1000, thr: 1200},
	{name: "durable", scale: 1, warm: 100, lat: 2000, thr: 2400, durable: true},
}

const durableCompactEvery = 512 // at -seconds 30

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sizing carries the two knobs that shrink a run: factor multiplies every
// count, scaleMul every collection scale (only -quick sets it below 1).
type sizing struct {
	factor   float64
	scaleMul float64
}

func (z sizing) count(c int) int {
	n := int(math.Round(float64(c) * z.factor))
	if n < 2 {
		n = 2
	}
	return n
}

// serverConfig is the part of fbserve's configuration a workload fixes;
// the HTTP passes turn it into flags, the traced run into the same
// constructor calls cmd/fbserve makes.
type serverConfig struct {
	scale        float64
	iterBudget   int // 0 = fbserve's default
	dir          string
	compactEvery int
}

func (w workload) config(z sizing, dir string) serverConfig {
	c := serverConfig{scale: w.scale * z.scaleMul}
	if w.durable {
		c.dir = dir
		c.iterBudget = 1
		c.compactEvery = z.count(durableCompactEvery)
	}
	return c
}

func (c serverConfig) args(addr string) []string {
	a := []string{
		"-addr", addr,
		"-scale", strconv.FormatFloat(c.scale, 'g', -1, 64),
		"-seed", strconv.Itoa(collectionSeed),
		"-k", strconv.Itoa(resultsK),
	}
	if c.dir != "" {
		a = append(a, "-dir", c.dir, "-sync",
			"-compact-every", strconv.Itoa(c.compactEvery),
			"-iter-budget", strconv.Itoa(c.iterBudget))
	}
	return a
}

// labelCollection is the collection fbserve serves at this scale with
// every item's category and no feature: imagegen lays items out category
// by category, so the labels follow from the configuration alone and the
// expensive rendering is left to the server. The HTTP passes need no
// more — and check the labels in every reply against it.
func labelCollection(scale float64) (*dataset.Dataset, error) {
	cfg := imagegen.IMSILike(collectionSeed, scale)
	var items []dataset.Item
	for _, cat := range cfg.Categories {
		for n := 0; n < cat.Count; n++ {
			items = append(items, dataset.Item{ID: len(items), Category: cat.Name, Feature: []float64{0}})
		}
	}
	return dataset.FromItems(items, cfg.QueryCategoryNames())
}

// buildCollection renders the collection exactly as fbserve does, for
// the in-process traced run.
func buildCollection(scale float64, labels *dataset.Dataset) (*dataset.Dataset, error) {
	ds, err := dataset.Build(imagegen.IMSILike(collectionSeed, scale), histogram.DefaultExtractor)
	if err != nil {
		return nil, err
	}
	if ds.Len() != labels.Len() {
		return nil, fmt.Errorf("rendered collection has %d items, its configuration implies %d", ds.Len(), labels.Len())
	}
	for i, it := range ds.Items {
		if it.Category != labels.Items[i].Category {
			return nil, fmt.Errorf("rendered item %d is a %q, its configuration implies %q", i, it.Category, labels.Items[i].Category)
		}
	}
	return ds, nil
}

// script is the fixed session sequence of one pass: item ids only. The
// oracle's answers follow from the items and the server's results.
type script struct {
	train []int // revisit set-up pool
	warm  []int
	lat   []int
	thr   [thrClients][]int
}

// buildScript is a pure function of (seed, workload, sizing): the query
// items come from the paper's seven query categories via SampleQueries —
// distinct until the pool is exhausted — or, for the revisit shape,
// uniformly with replacement from the trained pool.
func buildScript(ds *dataset.Dataset, w workload, z sizing, seed int64) (script, error) {
	rng := rand.New(rand.NewSource(seed))
	nWarm, nLat, nThr := z.count(w.warm), z.count(w.lat), z.count(w.thr)
	var sc script
	var seq []int
	if w.pool > 0 {
		pool, err := ds.SampleQueries(rng, w.pool)
		if err != nil {
			return script{}, err
		}
		sc.train = pool
		seq = make([]int, nWarm+nLat+nThr)
		for i := range seq {
			seq[i] = pool[rng.Intn(len(pool))]
		}
	} else {
		var err error
		if seq, err = ds.SampleQueries(rng, nWarm+nLat+nThr); err != nil {
			return script{}, err
		}
	}
	sc.warm, sc.lat = seq[:nWarm], seq[nWarm:nWarm+nLat]
	for i, item := range seq[nWarm+nLat:] {
		sc.thr[i%thrClients] = append(sc.thr[i%thrClients], item)
	}
	return sc, nil
}
