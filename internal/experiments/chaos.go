package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/persist"
	"repro/internal/shardedbypass"
	"repro/internal/simplextree"
	"repro/internal/vec"
)

// ChaosConfig drives the fault-injection benchmark: a crash-schedule
// sweep over every mutating filesystem operation of a durable insert
// workload (the durable module at 1 and at Shards shards), a
// degraded-mode phase (the disk under the journal goes bad mid-flight),
// and a quota-exhaustion phase — each reporting availability, error
// taxonomy and recovery time.
type ChaosConfig struct {
	// Seed makes the workloads deterministic.
	Seed int64
	// D and P are the module's simplex and weight dimensionalities.
	D, P int
	// Inserts is the workload length of each crash schedule.
	Inserts int
	// CompactEvery triggers compaction inside the workload so crash
	// points cover snapshot rename and journal truncation, not just
	// appends.
	CompactEvery int
	// Shards is the partition count of the second crash sweep (the first
	// always runs one shard).
	Shards int
	// DegradedInserts is the number of insert attempts against the
	// read-only degraded module.
	DegradedInserts int
	// QuotaHeadroom is the vertex quota above the D+1 domain corners in
	// the quota phase.
	QuotaHeadroom int
}

// DefaultChaosConfig is the operating point of the committed artifact:
// small enough that the full crash sweep (one fresh module + recovery
// per mutating op, two shard counts) stays in CI budget, large enough that
// every crash-point class — header write, append, append fsync, snapshot
// write/rename, directory fsync, journal truncation — is enumerated.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seed:            1,
		D:               3,
		P:               2,
		Inserts:         12,
		CompactEvery:    4,
		Shards:          3,
		DegradedInserts: 48,
		QuotaHeadroom:   4,
	}
}

// ChaosCrashSweep is one shard count's crash-schedule result: the
// workload is run once per mutating filesystem operation with a
// process-kill injected at exactly that operation, then recovered on a
// healthy disk.
type ChaosCrashSweep struct {
	Shards int `json:"shards"`
	// CrashPoints is the number of schedules = mutating ops of the
	// fault-free workload.
	CrashPoints int `json:"crash_points"`
	// RecoveryFailures counts schedules whose reopen failed (must be 0).
	RecoveryFailures int `json:"recovery_failures"`
	// AckedLost counts acknowledged inserts missing after recovery,
	// summed over all schedules (the headline invariant: must be 0).
	AckedLost int `json:"acked_lost"`
	// ExtraReplayed counts un-acknowledged in-flight inserts that
	// recovery resurrected (a fully written record whose fsync or
	// rollback died with the crash) — bounded by 1 per schedule.
	ExtraReplayed int `json:"extra_replayed"`
	// Recovery time over all schedules.
	RecoveryMeanMicros float64 `json:"recovery_mean_us"`
	RecoveryMaxMicros  float64 `json:"recovery_max_us"`
}

// ChaosDegraded is the degraded-mode phase: a healthy module's journal
// disk goes bad, and the module must keep serving reads (parity-pinned
// against a healthy twin) while rejecting writes with the typed sentinel.
type ChaosDegraded struct {
	AckedBefore int `json:"acked_before"`
	// Insert attempts after the disk failure, by classification.
	TypedRejections int `json:"typed_rejections"`
	UntypedErrors   int `json:"untyped_errors"`
	// Reads against the degraded module at every acknowledged point.
	ReadsAttempted int  `json:"reads_attempted"`
	ReadsOK        int  `json:"reads_ok"`
	ParityOK       bool `json:"parity_ok"` // bitwise vs the healthy twin
	// ReadAvailability is ReadsOK/ReadsAttempted — 1.0 means the read
	// plane never noticed the disk failure.
	ReadAvailability float64 `json:"read_availability"`
	// RecoveryMicros is the reopen time against a healthy disk: the
	// journal holds every acknowledged insert, so nothing is lost.
	RecoveryMicros float64 `json:"recovery_us"`
	RecoveredOK    bool    `json:"recovered_ok"`
}

// ChaosQuota is the quota-exhaustion phase: a module with a vertex quota
// accepts exactly its headroom, rejects the rest typed, and keeps the
// read plane live at full occupancy.
type ChaosQuota struct {
	MaxVertices      int     `json:"max_vertices"`
	Accepted         int     `json:"accepted"`
	TypedRejections  int     `json:"typed_rejections"`
	UntypedErrors    int     `json:"untyped_errors"`
	ReadsAttempted   int     `json:"reads_attempted"`
	ReadsOK          int     `json:"reads_ok"`
	ParityOK         bool    `json:"parity_ok"`
	ReadAvailability float64 `json:"read_availability"`
}

// ChaosResult aggregates the whole figure.
type ChaosResult struct {
	D           int               `json:"d"`
	P           int               `json:"p"`
	CrashSweeps []ChaosCrashSweep `json:"crash_sweeps"` // one per shard count
	Degraded    ChaosDegraded     `json:"degraded"`
	Quota       ChaosQuota        `json:"quota"`
}

// chaosPoint draws a strictly interior simplex point: every coordinate
// positive, sum < 1, away from faces so interpolation stays well
// conditioned.
func chaosPoint(rng *rand.Rand, d int) []float64 {
	for {
		q := make([]float64, d)
		sum := 0.0
		for i := range q {
			q[i] = rng.Float64()
			sum += q[i]
		}
		if sum <= 0 {
			continue
		}
		scale := (0.2 + 0.6*rng.Float64()) / sum
		ok := true
		for i := range q {
			q[i] *= scale
			if q[i] < 1e-3 {
				ok = false
			}
		}
		if ok {
			return q
		}
	}
}

func chaosOQP(rng *rand.Rand, d, p int) core.OQP {
	oqp := core.OQP{Delta: make([]float64, d), Weights: make([]float64, p)}
	for i := range oqp.Delta {
		oqp.Delta[i] = rng.NormFloat64() * 0.05
	}
	for i := range oqp.Weights {
		oqp.Weights[i] = rng.NormFloat64() * 0.3
	}
	return oqp
}

// chaosVertexKey is a vertex's bitwise identity: Point ++ Value as raw
// float64 bits, so two vertices compare equal iff they are bit-identical.
func chaosVertexKey(v *simplextree.Vertex) string {
	buf := make([]byte, 0, 8*(len(v.Point)+len(v.Value)))
	for _, x := range v.Point {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	for _, x := range v.Value {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return string(buf)
}

// sweepShardCounts is the shard counts a crash sweep enumerates: the
// single-tree module and the configured partition count.
func sweepShardCounts(shards int) []int {
	if shards == 1 {
		return []int{1}
	}
	return []int{1, shards}
}

// openChaosModule opens the durable module rooted at dir with the given
// shard count over fs (nil = the real filesystem).
func openChaosModule(dir string, shards int, fs persist.FS, cfg ChaosConfig) (*shardedbypass.Sharded, error) {
	return shardedbypass.Open(dir, cfg.D, cfg.P, core.Config{Epsilon: 0}, shardedbypass.Options{
		Shards:  shards,
		Durable: core.DurableOptions{CompactEvery: cfg.CompactEvery, Sync: true, FS: fs},
	})
}

// chaosCensus is the module's vertex set by bitwise identity.
func chaosCensus(m *shardedbypass.Sharded) (map[string]bool, error) {
	set := map[string]bool{}
	err := m.Walk(func(v *simplextree.Vertex) { set[chaosVertexKey(v)] = true })
	return set, err
}

// chaosWorkload drives cfg.Inserts inserts; insert errors are swallowed
// (a crashed run errors by design) — the census of the module's own
// in-memory tree at return is exactly the acknowledged state.
func chaosWorkload(m *shardedbypass.Sharded, cfg ChaosConfig) {
	rng := rand.New(rand.NewSource(cfg.Seed + 41))
	for i := 0; i < cfg.Inserts; i++ {
		_, _ = m.Insert(chaosPoint(rng, cfg.D), chaosOQP(rng, cfg.D, cfg.P))
	}
}

// runCrashSweep enumerates every crash point of the workload at one
// shard count.
func runCrashSweep(root string, shards int, cfg ChaosConfig) (ChaosCrashSweep, error) {
	out := ChaosCrashSweep{Shards: shards}

	// Counting run: how many mutating filesystem operations does the
	// fault-free workload perform?
	countFS := faultfs.New(nil)
	m, err := openChaosModule(filepath.Join(root, "count"), shards, countFS, cfg)
	if err != nil {
		return out, fmt.Errorf("counting run: %w", err)
	}
	chaosWorkload(m, cfg)
	if err := m.Close(); err != nil {
		return out, fmt.Errorf("counting run close: %w", err)
	}
	total := countFS.Ops()
	out.CrashPoints = total

	// Baseline census of a fresh, insert-free module: the D+1 domain
	// corner vertices every open seeds. A schedule that crashes during
	// open acknowledges nothing, but its recovery still (re)creates a
	// fresh module — so the corner set, not the empty set, is what
	// recovery owes it.
	bm, err := openChaosModule(filepath.Join(root, "baseline"), shards, nil, cfg)
	if err != nil {
		return out, fmt.Errorf("baseline open: %w", err)
	}
	baseline, err := chaosCensus(bm)
	if err != nil {
		_ = bm.Close()
		return out, fmt.Errorf("baseline census: %w", err)
	}
	if err := bm.Close(); err != nil {
		return out, fmt.Errorf("baseline close: %w", err)
	}

	var recSum, recMax float64
	for n := 1; n <= total; n++ {
		dir := filepath.Join(root, fmt.Sprintf("crash-%04d", n))
		fs := faultfs.New(nil)
		fs.SetCrashAt(n)
		m, err := openChaosModule(dir, shards, fs, cfg)
		var want map[string]bool
		if err == nil {
			chaosWorkload(m, cfg)
			want, err = chaosCensus(m)
			if err != nil {
				return out, fmt.Errorf("crash %d census: %w", n, err)
			}
			_ = m.Close() // post-crash close errors are expected
		} else {
			// Crashed during open: nothing was acknowledged, and recovery
			// owes exactly a fresh module (the corner vertices).
			want = baseline
		}
		if !fs.Crashed() {
			return out, fmt.Errorf("crash %d/%d never fired", n, total)
		}

		// Recovery on a healthy disk.
		t0 := time.Now()
		rm, err := openChaosModule(dir, shards, nil, cfg)
		rec := float64(time.Since(t0).Microseconds())
		if err != nil {
			out.RecoveryFailures++
			continue
		}
		recSum += rec
		if rec > recMax {
			recMax = rec
		}
		got, err := chaosCensus(rm)
		if err != nil {
			_ = rm.Close()
			return out, fmt.Errorf("recovery %d census: %w", n, err)
		}
		if err := rm.Close(); err != nil {
			return out, fmt.Errorf("recovery %d close: %w", n, err)
		}
		for key := range want {
			if !got[key] {
				out.AckedLost++
			}
		}
		if extra := len(got) - len(want); extra > 0 {
			out.ExtraReplayed += extra
		}
	}
	if ok := total - out.RecoveryFailures; ok > 0 {
		out.RecoveryMeanMicros = recSum / float64(ok)
	}
	out.RecoveryMaxMicros = recMax
	return out, nil
}

// runDegraded exercises read-only degraded serving: journal disk goes
// bad, writes reject typed, reads stay bitwise-correct, and reopening on
// a healthy disk recovers every acknowledged insert.
func runDegraded(root string, cfg ChaosConfig) (ChaosDegraded, error) {
	out := ChaosDegraded{ParityOK: true}
	rng := rand.New(rand.NewSource(cfg.Seed + 43))
	dir := filepath.Join(root, "degraded")
	fs := faultfs.New(nil)
	db, err := core.OpenDurable(dir, cfg.D, cfg.P, core.Config{Epsilon: 0},
		core.DurableOptions{CompactEvery: cfg.CompactEvery, Sync: true, FS: fs})
	if err != nil {
		return out, err
	}
	twin, err := core.New(cfg.D, cfg.P, core.Config{Epsilon: 0})
	if err != nil {
		return out, err
	}

	var acked [][]float64
	for i := 0; i < cfg.Inserts; i++ {
		q := chaosPoint(rng, cfg.D)
		oqp := chaosOQP(rng, cfg.D, cfg.P)
		if _, err := db.Insert(q, oqp); err != nil {
			return out, fmt.Errorf("healthy insert %d: %w", i, err)
		}
		if _, err := twin.Insert(q, oqp); err != nil {
			return out, err
		}
		acked = append(acked, q)
	}
	out.AckedBefore = len(acked)

	// The disk goes bad: every further journal write fails.
	fs.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: core.JournalFile, Nth: 0, Kind: faultfs.Fail})
	for i := 0; i < cfg.DegradedInserts; i++ {
		_, err := db.Insert(chaosPoint(rng, cfg.D), chaosOQP(rng, cfg.D, cfg.P))
		switch {
		case errors.Is(err, core.ErrDegraded):
			out.TypedRejections++
		case err != nil:
			out.UntypedErrors++
		default:
			// An accepted insert after the disk failure would be a
			// durability lie.
			out.UntypedErrors++
		}
	}

	// The read plane at every acknowledged point, parity-pinned.
	for _, q := range acked {
		out.ReadsAttempted++
		got, err := db.Predict(q)
		if err != nil {
			continue
		}
		out.ReadsOK++
		want, err := twin.Predict(q)
		if err != nil {
			return out, err
		}
		if !vec.Equal(got.Delta, want.Delta) || !vec.Equal(got.Weights, want.Weights) {
			out.ParityOK = false
		}
	}
	if out.ReadsAttempted > 0 {
		out.ReadAvailability = float64(out.ReadsOK) / float64(out.ReadsAttempted)
	}
	_ = db.Close()

	// Recovery on a healthy disk: the journal holds every acknowledged
	// insert, so reopening restores exactly the pre-failure state.
	t0 := time.Now()
	rdb, err := core.OpenDurable(dir, cfg.D, cfg.P, core.Config{Epsilon: 0}, core.DurableOptions{})
	out.RecoveryMicros = float64(time.Since(t0).Microseconds())
	if err != nil {
		return out, nil // recovered_ok stays false
	}
	defer rdb.Close()
	out.RecoveredOK = true
	for _, q := range acked {
		got, err := rdb.Predict(q)
		if err != nil {
			out.RecoveredOK = false
			break
		}
		want, _ := twin.Predict(q)
		if !vec.Equal(got.Delta, want.Delta) || !vec.Equal(got.Weights, want.Weights) {
			out.RecoveredOK = false
			break
		}
	}
	return out, nil
}

// runQuota exercises quota governance: exactly the headroom is accepted,
// the rest reject typed, and reads stay live and parity-pinned at full
// occupancy.
func runQuota(root string, cfg ChaosConfig) (ChaosQuota, error) {
	max := cfg.D + 1 + cfg.QuotaHeadroom
	out := ChaosQuota{MaxVertices: max, ParityOK: true}
	rng := rand.New(rand.NewSource(cfg.Seed + 47))
	db, err := core.OpenDurable(filepath.Join(root, "quota"), cfg.D, cfg.P,
		core.Config{Epsilon: 0, MaxVertices: max}, core.DurableOptions{Sync: true})
	if err != nil {
		return out, err
	}
	defer db.Close()
	twin, err := core.New(cfg.D, cfg.P, core.Config{Epsilon: 0})
	if err != nil {
		return out, err
	}

	var kept [][]float64
	for i := 0; i < 4*max; i++ {
		q := chaosPoint(rng, cfg.D)
		oqp := chaosOQP(rng, cfg.D, cfg.P)
		_, err := db.Insert(q, oqp)
		switch {
		case err == nil:
			out.Accepted++
			kept = append(kept, q)
			if _, err := twin.Insert(q, oqp); err != nil {
				return out, err
			}
		case errors.Is(err, core.ErrQuotaExceeded):
			out.TypedRejections++
		default:
			out.UntypedErrors++
		}
	}
	for _, q := range kept {
		out.ReadsAttempted++
		got, err := db.Predict(q)
		if err != nil {
			continue
		}
		out.ReadsOK++
		want, err := twin.Predict(q)
		if err != nil {
			return out, err
		}
		if !vec.Equal(got.Delta, want.Delta) || !vec.Equal(got.Weights, want.Weights) {
			out.ParityOK = false
		}
	}
	if out.ReadsAttempted > 0 {
		out.ReadAvailability = float64(out.ReadsOK) / float64(out.ReadsAttempted)
	}
	return out, nil
}

// RunChaos runs the full fault-injection figure in a temporary directory.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	if cfg.D <= 0 || cfg.P < 0 || cfg.Inserts <= 0 || cfg.Shards < 1 {
		return ChaosResult{}, fmt.Errorf("experiments: invalid chaos config %+v", cfg)
	}
	root, err := os.MkdirTemp("", "fb-chaos-*")
	if err != nil {
		return ChaosResult{}, err
	}
	defer os.RemoveAll(root)

	res := ChaosResult{D: cfg.D, P: cfg.P}
	for _, shards := range sweepShardCounts(cfg.Shards) {
		sweep, err := runCrashSweep(filepath.Join(root, fmt.Sprintf("shards-%d", shards)), shards, cfg)
		if err != nil {
			return res, fmt.Errorf("%d-shard crash sweep: %w", shards, err)
		}
		res.CrashSweeps = append(res.CrashSweeps, sweep)
	}
	if res.Degraded, err = runDegraded(root, cfg); err != nil {
		return res, fmt.Errorf("degraded phase: %w", err)
	}
	if res.Quota, err = runQuota(root, cfg); err != nil {
		return res, fmt.Errorf("quota phase: %w", err)
	}
	return res, nil
}
