package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
)

// LifecycleConfig drives the bypass-lifecycle figure: a count-based soak
// whose query stream drifts across the simplex — so vertices learned
// early stop being reinforced — run twice, aging on with periodic
// compaction vs an aging-off control. Crash safety of the compaction
// swap is pinned by the core crash-schedule tests.
type LifecycleConfig struct {
	// Seed makes the workload deterministic.
	Seed int64
	// D and P are the module's simplex and weight dimensionalities.
	D, P int

	// Inserts is the drifting workload length per mode; AgeHorizon the
	// reclamation horizon of the aging mode (logical inserts); both modes'
	// modules compact every CompactEvery accepted inserts, which
	// reclaims only under aging.
	Inserts      int
	AgeHorizon   uint64
	CompactEvery int
}

// Every lifecycleSampleEvery inserts the tree shape and recent-window hit
// rate are sampled; the hit rate probes the lifecycleRecentWindow most
// recent inserts.
const (
	lifecycleSampleEvery  = 50
	lifecycleRecentWindow = 40
)

// DefaultLifecycleConfig is the committed-artifact operating point: the
// soak long enough that the aging mode reaches its plateau while the
// control is still growing.
func DefaultLifecycleConfig() LifecycleConfig {
	return LifecycleConfig{
		Seed:         1,
		D:            3,
		P:            2,
		Inserts:      600,
		AgeHorizon:   150,
		CompactEvery: 75,
	}
}

// LifecyclePoint is one sample of a soak series: the tree's shape and
// footprint next to the recent-window hit rate. SizeBytes prices every
// distinct vertex, corners included, at its 8·(D+N) bytes of point and
// value plus a flat 128 for the node and split coordinates it brings: a
// model, not the measured heap (DESIGN.md, "Bytes per stored point").
type LifecyclePoint struct {
	Inserts   int     `json:"inserts"`
	Points    int     `json:"points"`
	SizeBytes int64   `json:"size_bytes"`
	HitRate   float64 `json:"hit_rate"`
}

// LifecycleSeries is one soak mode's full result. The headline contrast:
// with aging on, FinalPoints plateaus near AgeHorizon while HitRate on
// the live window stays at 1; with aging off, FinalPoints grows with
// every insert.
type LifecycleSeries struct {
	Mode        string           `json:"mode"`
	AgeHorizon  uint64           `json:"age_horizon"`
	Compactions int              `json:"compactions"`
	Reclaimed   int              `json:"reclaimed"`
	FinalPoints int              `json:"final_points"`
	PeakPoints  int              `json:"peak_points"`
	Samples     []LifecyclePoint `json:"samples"`
}

// LifecycleResult aggregates the whole figure.
type LifecycleResult struct {
	D            int             `json:"d"`
	P            int             `json:"p"`
	Inserts      int             `json:"inserts"`
	AgeHorizon   uint64          `json:"age_horizon"`
	CompactEvery int             `json:"compact_every"`
	Aging        LifecycleSeries `json:"aging"`
	Control      LifecycleSeries `json:"control"`
}

// driftPoint draws an interior simplex point from a window whose center
// drifts monotonically along the first coordinate as t goes 0 → 1, so
// the regions learned early in the run are never queried or reinforced
// again — exactly the access pattern aging exists for.
func driftPoint(rng *rand.Rand, d int, t float64) []float64 {
	q := make([]float64, d)
	q[0] = 0.08 + 0.72*t + 0.01*rng.Float64()
	rest := 0.12 / float64(d)
	for i := 1; i < d; i++ {
		q[i] = rest * (0.8 + 0.4*rng.Float64())
	}
	return q
}

// randomOQP draws the outcome stored with each drifting insert.
func randomOQP(rng *rand.Rand, d, p int) core.OQP {
	oqp := core.OQP{Delta: make([]float64, d), Weights: make([]float64, p)}
	for i := range oqp.Delta {
		oqp.Delta[i] = rng.NormFloat64() * 0.05
	}
	for i := range oqp.Weights {
		oqp.Weights[i] = rng.NormFloat64() * 0.3
	}
	return oqp
}

// oqpClose reports whether a prediction reproduces the inserted outcome
// (the stored vertex answers bitwise up to interpolation rounding).
func oqpClose(got, want core.OQP) bool {
	const tol = 1e-6
	for i := range want.Delta {
		if math.Abs(got.Delta[i]-want.Delta[i]) > tol {
			return false
		}
	}
	for i := range want.Weights {
		if math.Abs(got.Weights[i]-want.Weights[i]) > tol {
			return false
		}
	}
	return true
}

// runLifecycleMode drives one soak mode: horizon 0 is the control (no
// aging, so its compactions rebuild nothing), a positive horizon ages
// vertices out in the compaction the module runs every cfg.CompactEvery
// accepted inserts.
func runLifecycleMode(cfg LifecycleConfig, horizon uint64) (LifecycleSeries, error) {
	mode := "aging"
	if horizon == 0 {
		mode = "control"
	}
	out := LifecycleSeries{Mode: mode, AgeHorizon: horizon}
	byp, err := core.OpenDurable("", cfg.D, cfg.P, core.Config{Epsilon: 0, AgeHorizon: horizon},
		core.DurableOptions{CompactEvery: cfg.CompactEvery})
	if err != nil {
		return out, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 53))
	type recent struct {
		q   []float64
		oqp core.OQP
	}
	window := make([]recent, 0, lifecycleRecentWindow)
	for i := 0; i < cfg.Inserts; i++ {
		t := float64(i) / float64(cfg.Inserts-1)
		q := driftPoint(rng, cfg.D, t)
		oqp := randomOQP(rng, cfg.D, cfg.P)
		if _, err := byp.Insert(q, oqp); err != nil {
			return out, fmt.Errorf("insert %d: %w", i, err)
		}
		if len(window) == lifecycleRecentWindow {
			window = window[1:]
		}
		window = append(window, recent{q, oqp})

		if (i+1)%lifecycleSampleEvery == 0 || i == cfg.Inserts-1 {
			hits := 0
			for _, r := range window {
				got, err := byp.Predict(r.q)
				if err == nil && oqpClose(got, r.oqp) {
					hits++
				}
			}
			st := byp.Stats()
			p := LifecyclePoint{
				Inserts:   i + 1,
				Points:    st.Points,
				SizeBytes: int64(st.DistinctVertices) * int64(8*(st.Dim+st.OQPDim)+128),
				HitRate:   float64(hits) / float64(len(window)),
			}
			out.Samples = append(out.Samples, p)
			if p.Points > out.PeakPoints {
				out.PeakPoints = p.Points
			}
		}
	}
	out.FinalPoints = byp.Stats().Points
	out.Compactions, out.Reclaimed = int(byp.Compactions()), int(byp.Reclaimed())
	return out, nil
}

// RunLifecycle runs the lifecycle figure: the aging soak, then the
// aging-off control.
func RunLifecycle(cfg LifecycleConfig) (LifecycleResult, error) {
	if cfg.D <= 0 || cfg.P < 0 || cfg.Inserts <= 1 || cfg.AgeHorizon == 0 {
		return LifecycleResult{}, fmt.Errorf("experiments: invalid lifecycle config %+v", cfg)
	}
	res := LifecycleResult{
		D: cfg.D, P: cfg.P, Inserts: cfg.Inserts,
		AgeHorizon: cfg.AgeHorizon, CompactEvery: cfg.CompactEvery,
	}
	var err error
	if res.Aging, err = runLifecycleMode(cfg, cfg.AgeHorizon); err != nil {
		return res, fmt.Errorf("aging soak: %w", err)
	}
	if res.Control, err = runLifecycleMode(cfg, 0); err != nil {
		return res, fmt.Errorf("control soak: %w", err)
	}
	return res, nil
}
