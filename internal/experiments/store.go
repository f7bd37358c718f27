package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/histogram"
	"repro/internal/httpapi"
	"repro/internal/imagegen"
	"repro/internal/knn"
	"repro/internal/store"
)

// StoreConfig drives the multi-backend store benchmark: the same
// collection served from the in-heap FlatMatrix and from an
// mmap-resident FBMX file, through every layer — raw scans, the tiled
// batch kernel, and the full serve protocol.
type StoreConfig struct {
	// Seed makes the collection and query streams deterministic.
	Seed int64
	// Scale multiplies the paper's collection cardinality.
	Scale float64
	// K is the result-list size per query.
	K int
	// Epsilon is the Simplex Tree insert threshold ε.
	Epsilon float64
	// Sessions is the number of complete sessions per serve phase.
	Sessions int
	// Clients is the closed-loop client count of the serve phases.
	Clients int
	// ScanQueries sizes the scan and batch measurement streams.
	ScanQueries int
}

// DefaultStoreConfig is the operating point of the committed benchmark
// artifact.
func DefaultStoreConfig() StoreConfig {
	return StoreConfig{
		Seed:        1,
		Scale:       0.3,
		K:           10,
		Epsilon:     0.05,
		Sessions:    128,
		Clients:     4,
		ScanQueries: 256,
	}
}

// StoreBackendResult measures one backend end to end. Scan numbers are
// per-query microseconds; Train/Bypass are the serve-protocol phases of
// the serving benchmark run against this backend.
type StoreBackendResult struct {
	Backend string `json:"backend"` // "heap" or "mmap"
	// ColdScanMicros is the first full-collection kernel scan after the
	// backend is opened. For the mmap backend this pass takes the page
	// faults that pull the collection into the process (from the page
	// cache when the file was recently written — an in-process "cold" is
	// first-touch cost, not disk latency); the heap backend's rows were
	// written by the builder and are already resident.
	ColdScanMicros float64 `json:"cold_scan_us"`
	// WarmScanMicros is the steady-state single-query kernel scan.
	WarmScanMicros float64 `json:"warm_scan_us"`
	// BatchMicrosPerQuery is the cache-tiled SearchBatch path — the
	// acceptance metric (mmap within 1.15x of heap).
	BatchMicrosPerQuery float64 `json:"batch_us_per_query"`
	// Train/Bypass are the serve-protocol phases (oracle feedback loops,
	// then the no-feedback bypass stream) against a service whose engine
	// retrieves from this backend.
	Train  ServePhaseResult `json:"train"`
	Bypass ServePhaseResult `json:"bypass"`
}

// StoreResult is the full multi-backend benchmark output.
type StoreResult struct {
	Collection int   `json:"collection"`
	Dim        int   `json:"dim"`
	K          int   `json:"k"`
	FileBytes  int64 `json:"file_bytes"` // size of the FBMX image on disk
	// WarmRatio is mmap.BatchMicrosPerQuery / heap.BatchMicrosPerQuery —
	// the headline number the acceptance bound (≤ 1.15) applies to.
	WarmRatio float64              `json:"warm_batch_ratio"`
	Backends  []StoreBackendResult `json:"backends"`
}

// RunStore builds one collection, exports it to an FBMX file, and
// measures heap-resident versus mmap-resident serving across the scan
// kernels and the serve protocol. Retrieval results are bitwise
// identical across backends (pinned by the knn mmap parity suite), so
// the comparison is purely about where the bytes live.
func RunStore(cfg StoreConfig) (StoreResult, error) {
	if cfg.Scale <= 0 {
		return StoreResult{}, fmt.Errorf("experiments: scale must be positive, got %v", cfg.Scale)
	}
	if cfg.K <= 0 || cfg.Sessions <= 0 || cfg.Clients <= 0 || cfg.ScanQueries <= 0 {
		return StoreResult{}, fmt.Errorf("experiments: K, Sessions, Clients and ScanQueries must be positive")
	}
	ds, err := dataset.Build(imagegen.IMSILike(cfg.Seed, cfg.Scale), histogram.DefaultExtractor)
	if err != nil {
		return StoreResult{}, err
	}
	dir, err := os.MkdirTemp("", "fbstore")
	if err != nil {
		return StoreResult{}, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "collection.fbmx")
	if err := store.WriteFBMX(path, ds.Matrix()); err != nil {
		return StoreResult{}, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return StoreResult{}, err
	}
	out := StoreResult{Collection: ds.Len(), Dim: ds.Dim, K: cfg.K, FileBytes: info.Size()}

	for _, kind := range []string{"heap", "mmap"} {
		var backend store.Backend
		var dsB *dataset.Dataset
		switch kind {
		case "heap":
			backend, dsB = ds.Matrix(), ds
		case "mmap":
			mm, err := store.OpenMmap(path)
			if err != nil {
				return StoreResult{}, err
			}
			defer mm.Close()
			backend = mm
			// Reuse the builder's labels so the serve phases' oracle works
			// identically over the mapped rows.
			dsB, err = dataset.FromBackend(mm, ds.Items, ds.QueryCats)
			if err != nil {
				return StoreResult{}, err
			}
		}
		res, err := runStoreBackend(cfg, kind, backend, dsB)
		if err != nil {
			return StoreResult{}, fmt.Errorf("experiments: %s backend: %w", kind, err)
		}
		out.Backends = append(out.Backends, res)
	}
	if h, m := out.Backends[0].BatchMicrosPerQuery, out.Backends[1].BatchMicrosPerQuery; h > 0 {
		out.WarmRatio = m / h
	}
	return out, nil
}

// runStoreBackend measures one backend: cold scan (the backend's very
// first kernel pass), warm scans, the tiled batch, and the serve
// protocol over a fresh service.
func runStoreBackend(cfg StoreConfig, kind string, backend store.Backend, ds *dataset.Dataset) (StoreBackendResult, error) {
	res := StoreBackendResult{Backend: kind}
	scan, err := knn.NewScanBackend(backend)
	if err != nil {
		return res, err
	}
	qs := make([][]float64, cfg.ScanQueries)
	for i := range qs {
		qs[i] = ds.Items[(i*131)%ds.Len()].Feature
	}
	metric := distance.Euclidean{}

	// Cold: the first full-collection pass this backend ever serves.
	t0 := time.Now()
	if _, err := scan.Search(qs[0], cfg.K, metric); err != nil {
		return res, err
	}
	res.ColdScanMicros = float64(time.Since(t0).Nanoseconds()) / 1e3

	// Warm: steady-state single-query scans over the query stream.
	t0 = time.Now()
	for _, q := range qs {
		if _, err := scan.Search(q, cfg.K, metric); err != nil {
			return res, err
		}
	}
	res.WarmScanMicros = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(qs))

	// Tiled batch: the L2-tiled SearchBatch path, warmed by the pass
	// above — the acceptance comparison.
	t0 = time.Now()
	if _, err := scan.SearchBatch(qs, cfg.K, metric); err != nil {
		return res, err
	}
	res.BatchMicrosPerQuery = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(qs))

	// Serve protocol: a fresh production stack retrieving from this
	// backend, driven through the shared phase runner.
	c, err := httpapi.Assemble(kind, ds, nil, httpapi.Config{
		K: cfg.K, Epsilon: cfg.Epsilon, MaxSessions: closedLoopSessions,
	})
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 8111))
	items, err := ds.SampleQueries(rng, cfg.Sessions)
	if err != nil {
		return res, err
	}
	res.Train, res.Bypass, err = runPhasePair(c.Service, cfg.K, cfg.Clients, items)
	return res, err
}
