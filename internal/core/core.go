// Package core implements the FeedbackBypass module of §3 (Figures 4 and
// 5 of the paper): the component that sits next to an interactive
// retrieval system, learns the optimal query mapping
//
//	Mopt : q ↦ (Δopt, Wopt)
//
// from the outcomes of past feedback loops, and predicts optimal query
// parameters (OQPs) for new queries so the feedback loop can be bypassed
// or shortened.
//
// The mapping is stored in a Simplex Tree (package simplextree). This
// package adds the OQP vocabulary — the (Δ, W) pair, its flat encoding as
// the tree's stored vector — and the histogram codec that realizes
// Example 1 of the paper: 32-bin normalized histograms become points of
// the standard simplex in R^31 by dropping the redundant last bin, and one
// weight is pinned to 1, so Mopt maps R^31 to R^62.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/persist"
	"repro/internal/simplextree"
	"repro/internal/vec"
)

// ErrOutOfDomain re-exports the Simplex Tree's out-of-domain sentinel at
// the module boundary: every position-caused Predict/Insert failure wraps
// it, so callers (the serving layer in particular) can classify bad query
// points with errors.Is without importing simplextree.
var ErrOutOfDomain = simplextree.ErrOutOfDomain

// OQP is the pair of optimal query parameters of §3: the offset Δopt from
// the initial to the optimal query point, and the distance-function
// parameters Wopt.
type OQP struct {
	Delta   []float64 // length D (query-domain dimensionality)
	Weights []float64 // length P (independent distance parameters)
}

// Encode flattens the OQP into the N = D+P vector the Simplex Tree stores.
func (o OQP) Encode() []float64 {
	out := make([]float64, 0, len(o.Delta)+len(o.Weights))
	out = append(out, o.Delta...)
	out = append(out, o.Weights...)
	return out
}

// DecodeOQP splits a flat N-vector back into (Δ, W).
func DecodeOQP(v []float64, d, p int) (OQP, error) {
	if len(v) != d+p {
		return OQP{}, fmt.Errorf("core: OQP vector has length %d, want %d+%d", len(v), d, p)
	}
	return OQP{Delta: vec.Clone(v[:d]), Weights: vec.Clone(v[d : d+p])}, nil
}

// Config tunes a Bypass module.
type Config struct {
	// Epsilon is the Simplex Tree insert threshold ε (§4.2).
	Epsilon float64
	// DefaultWeights seeds the domain corners' weight parameters; all-ones
	// when nil. Codecs that store weights in a transformed domain (e.g.
	// the log-ratio parameterization of HistogramCodec, whose neutral
	// element is zero) must supply their own defaults.
	DefaultWeights []float64
	// MaxVertices bounds the Simplex Tree's distinct vertices (the D+1
	// domain corners included); zero is unbounded. An insert past the
	// bound is rejected with an error wrapping
	// simplextree.ErrQuotaExceeded while predictions stay live. Durable
	// recovery is exempt: a module already past a lowered bound reopens
	// read-mostly instead of failing. Every vertex holds the same
	// 8·(D+N) bytes of point and value, so this bounds the tree's bytes
	// too.
	MaxVertices int
	// AgeHorizon enables the lifecycle plane: a vertex not inserted or
	// reinforced (touched by a prediction over its leaf) within this many
	// logical ticks of the tree clock (accepted inserts) becomes
	// reclaimable by the next compaction.
	// Zero disables aging entirely — the read path then takes no stamp
	// writes and the module behaves bitwise like one without a lifecycle.
	AgeHorizon uint64
}

// ErrQuotaExceeded re-exports the Simplex Tree's resource-governance
// sentinel so serving layers can classify rejections without importing
// simplextree.
var ErrQuotaExceeded = simplextree.ErrQuotaExceeded

// Bypass is the FeedbackBypass module: a learned Mopt with Predict and
// Insert, exactly the interface of Figure 5. A module opened with a
// directory (OpenDurable) also keeps its mapping across sessions in a
// log beside the tree; one without a directory (New) keeps none, and
// its log methods report 0 or nil.
//
// The tree is held behind an atomic pointer so a compaction can swap in
// a rebuilt tree without stalling readers: predictions run against
// whichever tree they loaded. Writes — Insert, Compact and Close —
// serialize on mu, the module's one write mutex, so no accepted insert
// can land in a tree that is about to be discarded, nor fall between a
// census and the journal that follows it.
type Bypass struct {
	tree atomic.Pointer[simplextree.Tree]
	mu   sync.Mutex // the write mutex
	d, p int

	wal          *persist.WAL // the tree log; nil without a directory
	compactEvery int          // DurableOptions.CompactEvery
	pending      int          // inserts accepted since the last compaction; guarded by mu

	// degMu guards degraded separately from the write mutex: the WAL
	// observer that latches it runs under the tree's exclusive lock while
	// Insert already holds the write mutex, so it cannot retake it.
	degMu    sync.Mutex
	degraded error // errors.Join(ErrDegraded, cause); nil while healthy

	// The module's instruments, in DurableOptions.Obs or a private
	// registry; the two counters are also what Compactions and Reclaimed
	// read.
	compactionsC *obsv.Counter   // fb_bypass_compactions_total
	reclaimedC   *obsv.Counter   // fb_bypass_reclaimed_vertices_total
	compactH     *obsv.Histogram // fb_bypass_compaction_seconds
	pointsBefG   *obsv.Gauge     // fb_bypass_compaction_points_before
	pointsAftG   *obsv.Gauge     // fb_bypass_compaction_points_after
	snapH        *obsv.Histogram // fb_snapshot_seconds; nil without a log
}

// New creates a module without a log for a D-dimensional query domain,
// the standard simplex spanned by 0, e1, …, eD (§4.1), and P distance
// parameters: OpenDurable("", d, p, cfg, DurableOptions{}). The default
// OQPs — zero offset, unit weights — seed the domain corners, so an
// untrained module predicts the default parameters everywhere.
func New(d, p int, cfg Config) (*Bypass, error) {
	return OpenDurable("", d, p, cfg, DurableOptions{})
}

// newTree grows the untrained tree of a fresh module.
func newTree(d, p int, cfg Config) (*simplextree.Tree, error) {
	if d <= 0 || p < 0 {
		return nil, fmt.Errorf("core: invalid dimensions D=%d, P=%d", d, p)
	}
	defW := cfg.DefaultWeights
	if defW == nil {
		defW = vec.Ones(p)
	}
	if len(defW) != p {
		return nil, fmt.Errorf("core: default weights have dimension %d, want %d", len(defW), p)
	}
	def := OQP{Delta: vec.Zeros(d), Weights: vec.Clone(defW)}
	return simplextree.New(d, def.Encode(), simplextree.Options{
		Epsilon:     cfg.Epsilon,
		MaxVertices: cfg.MaxVertices,
		AgeHorizon:  cfg.AgeHorizon,
	})
}

// D returns the query-domain dimensionality.
func (b *Bypass) D() int { return b.d }

// P returns the number of distance parameters.
func (b *Bypass) P() int { return b.p }

// Tree exposes the underlying Simplex Tree (for persistence and stats).
// After a compaction that rebuilt it the returned tree is the new one;
// callers must not cache the pointer across compactions.
func (b *Bypass) Tree() *simplextree.Tree { return b.tree.Load() }

// Predict returns the OQPs for query point q — the Mopt method of
// Figure 5. Weight validity (positivity etc.) is the codec's concern at
// decode time, since the stored parameterization is codec-defined.
// Predictions are pure reads and run in parallel.
func (b *Bypass) Predict(q []float64) (OQP, error) {
	raw, err := b.Tree().Predict(q)
	if err != nil {
		return OQP{}, err
	}
	return DecodeOQP(raw, b.d, b.p)
}

// PredictWithStats is Predict returning the per-call lookup statistics
// (the Figure 16 traversal series) alongside the OQPs.
func (b *Bypass) PredictWithStats(q []float64) (OQP, simplextree.PredictStats, error) {
	raw := make([]float64, b.d+b.p)
	st, err := b.Tree().PredictInto(raw, q)
	if err != nil {
		return OQP{}, st, err
	}
	oqp, err := DecodeOQP(raw, b.d, b.p)
	return oqp, st, err
}

// Insert stores the OQPs the feedback loop converged to for query point q
// — the Insert method of Figure 5. It reports whether the tree changed
// (an insert within ε of the current prediction is skipped, §4.2). With
// a log an accepted insert is journaled before the tree changes, so once
// Insert returns true the outcome survives a crash.
//
// Every DurableOptions.CompactEvery accepted inserts the module compacts
// (see Compact) before Insert returns. An insert that trips a quota
// while aging is on compacts too, and is retried once iff that reclaimed
// space (a retry without reclamation would bounce identically). That
// compaction changed the served tree even when the retry is ε-skipped,
// so it reports changed=true either way: caches over this tree must
// refresh.
func (b *Bypass) Insert(q []float64, oqp OQP) (bool, error) {
	if len(oqp.Delta) != b.d {
		return false, fmt.Errorf("core: Δ has dimension %d, want %d", len(oqp.Delta), b.d)
	}
	if len(oqp.Weights) != b.p {
		return false, fmt.Errorf("core: W has dimension %d, want %d", len(oqp.Weights), b.p)
	}
	if !vec.IsFinite(oqp.Delta) || !vec.IsFinite(oqp.Weights) {
		return false, errors.New("core: OQP contains non-finite values")
	}
	value := oqp.Encode()
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.Degraded(); err != nil {
		return false, err
	}
	stored, err := b.Tree().Insert(q, value)
	changed := stored
	if errors.Is(err, ErrQuotaExceeded) && b.Tree().AgeHorizon() > 0 {
		// A failed compaction leaves the quota error standing; if it
		// failed to persist, the module is degraded and says so below.
		if reclaimed, cerr := b.compactLocked(); cerr == nil && reclaimed > 0 {
			stored, err = b.Tree().Insert(q, value)
			changed = true
		}
	}
	if err != nil {
		// A failed journal append has just latched the module degraded:
		// report the joined error so callers match ErrDegraded on the very
		// first rejected insert.
		if derr := b.Degraded(); derr != nil {
			return changed, derr
		}
		return changed, err
	}
	if !stored {
		return changed, nil
	}
	b.pending++
	if b.compactEvery > 0 && b.pending >= b.compactEvery {
		_, err = b.compactLocked()
	}
	return changed, err
}

// Degraded reports the sticky persistence failure that flipped a module
// with a log to read-only, or nil while it is healthy; a module without
// a log never degrades. The returned error satisfies errors.Is(err,
// ErrDegraded) and errors.Is against the root cause.
func (b *Bypass) Degraded() error {
	b.degMu.Lock()
	defer b.degMu.Unlock()
	return b.degraded
}

func (b *Bypass) noteDegraded(cause error) {
	b.degMu.Lock()
	if b.degraded == nil {
		b.degraded = errors.Join(ErrDegraded, cause)
	}
	b.degMu.Unlock()
}

// Stats reports the shape of the underlying Simplex Tree.
func (b *Bypass) Stats() simplextree.Stats { return b.Tree().Stats() }

// Compact runs the module's one compaction now, as Insert does every
// DurableOptions.CompactEvery accepted inserts: with aging on, the tree
// is rebuilt keeping only the vertices still alive under the horizon;
// with a log, a fresh log whose census is the (rebuilt) tree is
// committed, so the journal starts empty; then the rebuilt tree is
// swapped in. A step that does not apply is skipped, so on a module
// with neither Compact does nothing. A crash at any point recovers
// either the pre-compaction tree or the exact rebuilt one, never a
// hybrid; a persistence failure latches the module degraded.
func (b *Bypass) Compact() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.Degraded(); err != nil {
		return err
	}
	_, err := b.compactLocked()
	return err
}

// compactLocked is one compaction under mu: aged rebuild, log commit,
// swap, each when it applies. It returns the vertices the rebuild
// reclaimed.
func (b *Bypass) compactLocked() (int, error) {
	t0 := time.Now()
	old := b.Tree()
	nt, rst := old, simplextree.RebuildStats{}
	if horizon := old.AgeHorizon(); horizon > 0 {
		var err error
		if nt, rst, err = old.RebuildAged(horizon); err != nil {
			// Deterministic geometry, not a persistence failure: the
			// module stays healthy on its current tree.
			return 0, fmt.Errorf("core: aged rebuild: %w", err)
		}
	}
	if b.wal != nil {
		// Until the swap, predictions and the log both come from old, so
		// a crash recovers either census.
		t1 := time.Now()
		if err := b.wal.Reset(nt); err != nil {
			b.noteDegraded(err)
			return 0, b.Degraded()
		}
		b.snapH.ObserveSince(t1)
	}
	b.pending = 0
	if nt == old {
		return 0, nil
	}
	if b.wal != nil {
		// Late holders of the retired tree cannot journal.
		b.attachObserver(nt)
		old.SetObserver(nil)
	}
	b.tree.Store(nt)
	b.compactionsC.Inc()
	b.reclaimedC.Add(uint64(rst.Reclaimed))
	b.pointsBefG.Set(float64(rst.Before))
	b.pointsAftG.Set(float64(rst.After))
	b.compactH.ObserveSince(t0)
	return rst.Reclaimed, nil
}

// Compactions reports the number of compactions that rebuilt the tree
// (aging on) since the module was created or opened: the value of
// fb_bypass_compactions_total.
func (b *Bypass) Compactions() uint64 { return b.compactionsC.Value() }

// Reclaimed reports the total vertices those compactions reclaimed: the
// value of fb_bypass_reclaimed_vertices_total.
func (b *Bypass) Reclaimed() uint64 { return b.reclaimedC.Value() }

// HistogramCodec translates between the retrieval engine's world —
// full normalized histograms of Bins dimensions with Bins distance weights
// — and the module's reduced query domain, realizing Example 1: D = P =
// Bins−1, the last bin is dropped (it is redundant under normalization)
// and the last weight is pinned to 1.
//
// Weights are stored as log-ratios, W_i = ln(w_i / w_last). Re-weighting
// produces weights spanning many orders of magnitude (w ∝ 1/σ² with a
// variance floor), and the Simplex Tree interpolates stored vectors
// linearly; in the raw parameterization a single large-ratio neighbour
// dominates every prediction in its leaf. Interpolating log-ratios instead
// performs the geometric mixing appropriate for multiplicative parameters
// and keeps decoded weights positive by construction. The neutral element
// is 0 (= unit weight), matching the module's default OQPs through
// DefaultWeights.
type HistogramCodec struct {
	Bins int
}

// MaxLogWeight clamps decoded log-ratios: ratios are confined to
// [e^-MaxLogWeight, e^+MaxLogWeight] ≈ [1e-7, 1e7].
const MaxLogWeight = 16.0

// NewHistogramCodec validates the bin count.
func NewHistogramCodec(bins int) (HistogramCodec, error) {
	if bins < 2 {
		return HistogramCodec{}, fmt.Errorf("core: need at least 2 bins, got %d", bins)
	}
	return HistogramCodec{Bins: bins}, nil
}

// D returns the query-domain dimensionality (Bins−1).
func (c HistogramCodec) D() int { return c.Bins - 1 }

// P returns the number of independent weights (Bins−1).
func (c HistogramCodec) P() int { return c.Bins - 1 }

// DefaultWeights returns the stored-domain representation of uniform
// weights — all zeros in the log-ratio parameterization. Pass it as
// Config.DefaultWeights when creating the Bypass this codec feeds.
func (c HistogramCodec) DefaultWeights() []float64 { return vec.Zeros(c.Bins - 1) }

// QueryPoint maps a normalized histogram to its query-domain point by
// dropping the last bin.
func (c HistogramCodec) QueryPoint(feature []float64) ([]float64, error) {
	if len(feature) != c.Bins {
		return nil, fmt.Errorf("core: feature has %d bins, want %d", len(feature), c.Bins)
	}
	out := make([]float64, c.Bins-1)
	copy(out, feature[:c.Bins-1])
	return out, nil
}

// EncodeOQP converts the feedback loop's full-dimensional outcome — the
// optimal query point qopt and weight vector w, both of Bins components —
// into the reduced OQP relative to the initial query q:
//
//	Δ_i = qopt_i − q_i            (i < Bins−1; the last component is −ΣΔ)
//	W_i = ln(w_i / w_{Bins−1})    (pinning the last weight to 1)
//
// Every weight must be positive and finite.
func (c HistogramCodec) EncodeOQP(q, qopt, w []float64) (OQP, error) {
	if len(q) != c.Bins || len(qopt) != c.Bins || len(w) != c.Bins {
		return OQP{}, fmt.Errorf("core: expected %d-bin vectors, got q=%d qopt=%d w=%d", c.Bins, len(q), len(qopt), len(w))
	}
	last := w[c.Bins-1]
	if last <= 0 || math.IsNaN(last) || math.IsInf(last, 0) {
		return OQP{}, fmt.Errorf("core: pinned weight must be positive and finite, got %v", last)
	}
	delta := make([]float64, c.Bins-1)
	weights := make([]float64, c.Bins-1)
	for i := 0; i < c.Bins-1; i++ {
		delta[i] = qopt[i] - q[i]
		if w[i] <= 0 || math.IsNaN(w[i]) || math.IsInf(w[i], 0) {
			return OQP{}, fmt.Errorf("core: weight %d must be positive and finite, got %v", i, w[i])
		}
		lr := math.Log(w[i] / last)
		if lr > MaxLogWeight {
			lr = MaxLogWeight
		} else if lr < -MaxLogWeight {
			lr = -MaxLogWeight
		}
		weights[i] = lr
	}
	return OQP{Delta: delta, Weights: weights}, nil
}

// DecodeOQP reconstructs the full-dimensional (qopt, w) from a reduced OQP
// and the initial query q. The last Δ component is recovered from the
// normalization constraint (offsets of normalized points sum to zero); the
// pinned weight is 1; reconstructed query components are clamped at 0, and
// log-ratios at ±MaxLogWeight before exponentiation.
func (c HistogramCodec) DecodeOQP(q []float64, oqp OQP) (qopt, w []float64, err error) {
	if len(q) != c.Bins {
		return nil, nil, fmt.Errorf("core: query has %d bins, want %d", len(q), c.Bins)
	}
	if len(oqp.Delta) != c.Bins-1 || len(oqp.Weights) != c.Bins-1 {
		return nil, nil, fmt.Errorf("core: OQP dimensions (%d, %d), want (%d, %d)", len(oqp.Delta), len(oqp.Weights), c.Bins-1, c.Bins-1)
	}
	qopt = make([]float64, c.Bins)
	var deltaSum float64
	for i := 0; i < c.Bins-1; i++ {
		deltaSum += oqp.Delta[i]
		qopt[i] = q[i] + oqp.Delta[i]
		if qopt[i] < 0 {
			qopt[i] = 0
		}
	}
	qopt[c.Bins-1] = q[c.Bins-1] - deltaSum
	if qopt[c.Bins-1] < 0 {
		qopt[c.Bins-1] = 0
	}
	w = make([]float64, c.Bins)
	for i := 0; i < c.Bins-1; i++ {
		lr := oqp.Weights[i]
		switch {
		case math.IsNaN(lr):
			lr = 0
		case lr > MaxLogWeight:
			lr = MaxLogWeight
		case lr < -MaxLogWeight:
			lr = -MaxLogWeight
		}
		w[i] = math.Exp(lr)
	}
	w[c.Bins-1] = 1
	return qopt, w, nil
}
