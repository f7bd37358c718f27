package experiments

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/persist"
	"repro/internal/shardedbypass"
	"repro/internal/simplextree"
)

// LifecycleConfig drives the bypass-lifecycle figure: a count-based soak
// whose query stream drifts across the simplex — so vertices learned
// early stop being reinforced — run twice (aging on with periodic
// compaction vs an aging-off control), plus a crash-schedule sweep over
// every mutating filesystem operation of a workload that compacts
// mid-stream, on the durable module at 1 and at Shards shards.
type LifecycleConfig struct {
	// Seed makes the workloads deterministic.
	Seed int64
	// D and P are the module's simplex and weight dimensionalities.
	D, P int

	// Soak phase.
	//
	// Inserts is the drifting workload length per mode; AgeHorizon the
	// reclamation horizon of the aging mode (logical inserts); the aging
	// mode compacts every CompactEvery inserts. Every SampleEvery inserts
	// the tree shape, process memory and recent-window hit rate are
	// sampled; the hit rate probes the RecentWindow most recent inserts.
	Inserts      int
	AgeHorizon   uint64
	CompactEvery int
	SampleEvery  int
	RecentWindow int

	// Crash phase.
	//
	// Each schedule drives CrashInserts inserts with an aging compaction
	// after every CrashCompactEvery of them, under CrashAgeHorizon, so
	// crash points cover the compaction swap (snapshot write, rename,
	// directory fsync, journal reset) with real reclamation happening.
	// Shards is the partition count of the second sweep (the first always
	// runs one shard).
	CrashInserts      int
	CrashCompactEvery int
	CrashAgeHorizon   uint64
	Shards            int
}

// DefaultLifecycleConfig is the committed-artifact operating point: the
// soak long enough that the aging mode reaches its plateau while the
// control is still growing, the crash phase small enough that two full
// per-operation sweeps stay in CI budget.
func DefaultLifecycleConfig() LifecycleConfig {
	return LifecycleConfig{
		Seed:              1,
		D:                 3,
		P:                 2,
		Inserts:           600,
		AgeHorizon:        150,
		CompactEvery:      75,
		SampleEvery:       50,
		RecentWindow:      40,
		CrashInserts:      10,
		CrashCompactEvery: 4,
		CrashAgeHorizon:   4,
		Shards:            3,
	}
}

// LifecyclePoint is one sample of a soak series: the tree's shape and
// footprint next to the process memory and the recent-window hit rate.
type LifecyclePoint struct {
	Inserts        int     `json:"inserts"`
	Points         int     `json:"points"`
	SizeBytes      int64   `json:"size_bytes"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	RSSBytes       uint64  `json:"rss_bytes"`
	HitRate        float64 `json:"hit_rate"`
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

// LifecycleCrashSweep is one shard count's compaction crash-schedule
// result.
// Every schedule kills the module at exactly one mutating filesystem
// operation, recovers on a healthy disk, and checks the recovered census
// (vertex point, value AND stamp, bitwise) against the healthy run's
// census sequence: it must land on the last acknowledged state, or on
// the in-flight operation's state — never between or beside them.
type LifecycleCrashSweep struct {
	Shards      int `json:"shards"`
	CrashPoints int `json:"crash_points"`
	// RecoveryFailures counts schedules whose reopen failed (must be 0).
	RecoveryFailures int `json:"recovery_failures"`
	// AckedLost counts acknowledged vertices the recovered census is
	// missing, summed over all schedules (must be 0).
	AckedLost int `json:"acked_lost"`
	// HybridStates counts schedules whose recovered census matches no
	// state the healthy run ever passed through (must be 0).
	HybridStates int `json:"hybrid_states"`
	// PostCompaction counts recoveries that landed on the state of an
	// unacknowledged in-flight compaction (its snapshot rename committed
	// before the crash); InFlightReplayed likewise for an in-flight
	// insert whose journal record survived.
	PostCompaction   int `json:"post_compaction"`
	InFlightReplayed int `json:"in_flight_replayed"`
}

// LifecycleResult aggregates the whole figure.
type LifecycleResult struct {
	D            int                   `json:"d"`
	P            int                   `json:"p"`
	Inserts      int                   `json:"inserts"`
	AgeHorizon   uint64                `json:"age_horizon"`
	CompactEvery int                   `json:"compact_every"`
	Aging        LifecycleSeries       `json:"aging"`
	Control      LifecycleSeries       `json:"control"`
	CrashSweeps  []LifecycleCrashSweep `json:"crash_sweeps"` // one per shard count
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
// aging, no compaction), a positive horizon compacts every
// cfg.CompactEvery inserts.
func runLifecycleMode(cfg LifecycleConfig, horizon uint64) (LifecycleSeries, error) {
	mode := "aging"
	if horizon == 0 {
		mode = "control"
	}
	out := LifecycleSeries{Mode: mode, AgeHorizon: horizon}
	byp, err := core.New(cfg.D, cfg.P, core.Config{Epsilon: 0, AgeHorizon: horizon})
	if err != nil {
		return out, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 53))
	type recent struct {
		q   []float64
		oqp core.OQP
	}
	window := make([]recent, 0, cfg.RecentWindow)
	for i := 0; i < cfg.Inserts; i++ {
		t := float64(i) / float64(cfg.Inserts-1)
		q := driftPoint(rng, cfg.D, t)
		oqp := chaosOQP(rng, cfg.D, cfg.P)
		if _, err := byp.Insert(q, oqp); err != nil {
			return out, fmt.Errorf("insert %d: %w", i, err)
		}
		if len(window) == cfg.RecentWindow {
			window = window[1:]
		}
		window = append(window, recent{q, oqp})

		if horizon > 0 && cfg.CompactEvery > 0 && (i+1)%cfg.CompactEvery == 0 {
			stats, err := byp.CompactAged()
			if err != nil {
				return out, fmt.Errorf("compaction at insert %d: %w", i, err)
			}
			out.Compactions++
			for _, st := range stats {
				out.Reclaimed += st.Reclaimed
			}
		}
		if (i+1)%cfg.SampleEvery == 0 || i == cfg.Inserts-1 {
			hits := 0
			for _, r := range window {
				got, err := byp.Predict(r.q)
				if err == nil && oqpClose(got, r.oqp) {
					hits++
				}
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			st := byp.Stats()
			p := LifecyclePoint{
				Inserts:        i + 1,
				Points:         st.Points,
				SizeBytes:      byp.Tree().SizeBytes(),
				HeapAllocBytes: ms.HeapAlloc,
				RSSBytes:       readRSS(),
				HitRate:        float64(hits) / float64(len(window)),
			}
			out.Samples = append(out.Samples, p)
			if p.Points > out.PeakPoints {
				out.PeakPoints = p.Points
			}
		}
	}
	out.FinalPoints = byp.Stats().Points
	return out, nil
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

// lcVertexKey is a vertex's full bitwise identity — point, value and
// aging stamp — so census equality also pins that recovery restored the
// timestamps replay depends on.
func lcVertexKey(v *simplextree.Vertex) string {
	return string(binary.LittleEndian.AppendUint64([]byte(chaosVertexKey(v)), v.Stamp()))
}

func lcCensus(m *shardedbypass.Sharded) (map[string]bool, error) {
	set := map[string]bool{}
	err := m.Walk(func(v *simplextree.Vertex) { set[lcVertexKey(v)] = true })
	return set, err
}

// openLifecycleModule opens the durable module rooted at dir with the
// given shard count over fs (nil = the real filesystem), with aging
// enabled so compactions actually reclaim. Journal-depth compaction is
// disabled: every snapshot swap in the schedule is an explicit
// CompactAged, so the sweep's crash points map one-to-one onto the
// lifecycle path under test.
func openLifecycleModule(dir string, shards int, fs persist.FS, cfg LifecycleConfig) (*shardedbypass.Sharded, error) {
	return shardedbypass.Open(dir, cfg.D, cfg.P, core.Config{Epsilon: 0, AgeHorizon: cfg.CrashAgeHorizon}, shardedbypass.Options{
		Shards:  shards,
		Durable: core.DurableOptions{CompactEvery: 1 << 30, Sync: true, FS: fs},
	})
}

// lcOp is one step of the deterministic crash-phase workload.
type lcOp struct {
	compact bool
	q       []float64
	oqp     core.OQP
}

func lifecycleOps(cfg LifecycleConfig) []lcOp {
	rng := rand.New(rand.NewSource(cfg.Seed + 59))
	var ops []lcOp
	for i := 0; i < cfg.CrashInserts; i++ {
		ops = append(ops, lcOp{q: chaosPoint(rng, cfg.D), oqp: chaosOQP(rng, cfg.D, cfg.P)})
		if cfg.CrashCompactEvery > 0 && (i+1)%cfg.CrashCompactEvery == 0 {
			ops = append(ops, lcOp{compact: true})
		}
	}
	return ops
}

func lcApply(m *shardedbypass.Sharded, op lcOp) error {
	if op.compact {
		_, err := m.CompactAged()
		return err
	}
	_, err := m.Insert(op.q, op.oqp)
	return err
}

// lcMissing counts keys of a that b lacks.
func lcMissing(a, b map[string]bool) int {
	n := 0
	for k := range a {
		if !b[k] {
			n++
		}
	}
	return n
}

func lcEqual(a, b map[string]bool) bool {
	return len(a) == len(b) && lcMissing(a, b) == 0
}

// runLifecycleCrashSweep enumerates every crash point of the compacting
// workload at one shard count and verifies recovery against the healthy
// run's census sequence.
//
// The invariant: with k acknowledged operations at crash time, the
// recovered census must satisfy lo ⊆ census ⊆ hi, where lo/hi bracket
// the last acknowledged state S[k] and the in-flight operation's target
// state S[k+1] (an insert only adds, a compaction only removes — so the
// bracket is ordered either way). A census outside the bracket is a
// hybrid: it either lost acknowledged state or mixes pre- and
// post-compaction trees.
func runLifecycleCrashSweep(root string, shards int, cfg LifecycleConfig) (LifecycleCrashSweep, error) {
	out := LifecycleCrashSweep{Shards: shards}
	ops := lifecycleOps(cfg)

	// Healthy run: the census sequence S[0..len(ops)] every schedule's
	// recovery is checked against. S[0] is the fresh module (domain
	// corners only).
	sm, err := openLifecycleModule(filepath.Join(root, "seq"), shards, nil, cfg)
	if err != nil {
		return out, fmt.Errorf("sequence open: %w", err)
	}
	seq := make([]map[string]bool, 0, len(ops)+1)
	c0, err := lcCensus(sm)
	if err != nil {
		return out, fmt.Errorf("sequence census: %w", err)
	}
	seq = append(seq, c0)
	for i, op := range ops {
		if err := lcApply(sm, op); err != nil {
			return out, fmt.Errorf("sequence op %d: %w", i, err)
		}
		c, err := lcCensus(sm)
		if err != nil {
			return out, fmt.Errorf("sequence census %d: %w", i, err)
		}
		seq = append(seq, c)
	}
	if err := sm.Close(); err != nil {
		return out, fmt.Errorf("sequence close: %w", err)
	}

	// Counting run: mutating filesystem operations of the fault-free
	// workload (including close) = the number of crash schedules.
	countFS := faultfs.New(nil)
	cm, err := openLifecycleModule(filepath.Join(root, "count"), shards, countFS, cfg)
	if err != nil {
		return out, fmt.Errorf("counting open: %w", err)
	}
	for i, op := range ops {
		if err := lcApply(cm, op); err != nil {
			return out, fmt.Errorf("counting op %d: %w", i, err)
		}
	}
	if err := cm.Close(); err != nil {
		return out, fmt.Errorf("counting close: %w", err)
	}
	total := countFS.Ops()
	out.CrashPoints = total

	for n := 1; n <= total; n++ {
		dir := filepath.Join(root, fmt.Sprintf("crash-%04d", n))
		fs := faultfs.New(nil)
		fs.SetCrashAt(n)
		m, err := openLifecycleModule(dir, shards, fs, cfg)
		acked := 0
		if err == nil {
			for _, op := range ops {
				if lcApply(m, op) != nil {
					// The filesystem is dead from the crash point on;
					// every later operation fails too.
					break
				}
				acked++
			}
			_ = m.Close() // post-crash close errors are expected
		}
		if !fs.Crashed() {
			return out, fmt.Errorf("crash %d/%d never fired", n, total)
		}

		rm, err := openLifecycleModule(dir, shards, nil, cfg)
		if err != nil {
			out.RecoveryFailures++
			continue
		}
		got, err := lcCensus(rm)
		if err != nil {
			_ = rm.Close()
			return out, fmt.Errorf("recovery %d census: %w", n, err)
		}
		if err := rm.Close(); err != nil {
			return out, fmt.Errorf("recovery %d close: %w", n, err)
		}

		lo, hi := seq[acked], seq[acked]
		if acked < len(ops) {
			if ops[acked].compact {
				lo = seq[acked+1] // compaction only removes: post ⊆ pre
			} else {
				hi = seq[acked+1] // insert only adds: pre ⊆ post
			}
		}
		lost := lcMissing(lo, got)
		extra := lcMissing(got, hi)
		out.AckedLost += lost
		switch {
		case lost > 0 || extra > 0:
			out.HybridStates++
		case !lcEqual(got, seq[acked]):
			// Valid but ahead of the last acknowledged state: the
			// in-flight operation's effect survived the crash.
			if ops[acked].compact {
				out.PostCompaction++
			} else {
				out.InFlightReplayed++
			}
		}
	}
	return out, nil
}

// RunLifecycle runs the full lifecycle figure: both soak modes, then the
// compaction crash sweep at each shard count in a temp directory.
func RunLifecycle(cfg LifecycleConfig) (LifecycleResult, error) {
	if cfg.D <= 0 || cfg.P < 0 || cfg.Inserts <= 1 || cfg.AgeHorizon == 0 ||
		cfg.SampleEvery <= 0 || cfg.RecentWindow <= 0 ||
		cfg.CrashInserts <= 0 || cfg.CrashAgeHorizon == 0 || cfg.Shards < 1 {
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

	root, err := os.MkdirTemp("", "fb-lifecycle-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(root)
	for _, shards := range sweepShardCounts(cfg.Shards) {
		sweep, err := runLifecycleCrashSweep(filepath.Join(root, fmt.Sprintf("shards-%d", shards)), shards, cfg)
		if err != nil {
			return res, fmt.Errorf("%d-shard crash sweep: %w", shards, err)
		}
		res.CrashSweeps = append(res.CrashSweeps, sweep)
	}
	return res, nil
}
