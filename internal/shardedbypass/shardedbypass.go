// Package shardedbypass partitions the learned Mopt mapping across S
// independent Simplex Trees so the write path of the serving layer scales
// with partitions instead of serializing on one tree.
//
// The single-tree core.Bypass is the right shape for one interactive user
// — the paper's setting — but as a shared serving substrate every Close
// insert takes the one tree's exclusive lock and (through the serving
// layer's generational cache) invalidates every cached prediction in the
// process. Sharded splits the query domain by the pinned partition
// function engine.ShardOf (FNV-1a query signature mod S): each shard is a
// full Bypass — its own RWMutex, its own snapshot + WAL pair, its own
// compaction schedule — so inserts to different shards never contend and
// an insert invalidates only its own shard's cached predictions.
//
// Durable layout: a module directory holds a manifest (persist.Manifest,
// written once before any shard state exists) and one subdirectory per
// shard (shard-000/, shard-001/, ...), each an ordinary core.DurableBypass
// directory. One mapping rule (shardDir) covers the directories that
// predate the manifest: a root-level snapshot/journal pair with no
// manifest — what core.OpenDurable writes — is a one-shard module whose
// shard 0 lives at the module root, opened in place without adding a
// manifest. Recovery opens every shard in parallel and is deterministic
// per shard because each shard's WAL holds exactly that shard's accepted
// inserts in application order; cross-shard ordering is not recorded and
// not needed — the partition function makes shards independent learners.
// A crash mid-compaction of shard k is shard k's problem alone and is
// healed by core.DurableBypass's atomic-rename recovery inside that
// shard's directory. The manifest pins S, D and N: opening with a
// different geometry is refused, so resharding is an explicit migration
// (drain every shard's WAL through compaction, then re-insert every
// stored point under the new partition function), never an accident.
//
// S = 1 is the single-tree module: one shard, the identity partition, and
// behavior bitwise-identical to core.DurableBypass — same ε decisions,
// same predictions, same WAL bytes (pinned by TestSingleShardParity).
package shardedbypass

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/persist"
	"repro/internal/simplextree"
)

// ManifestFile is the manifest's name inside a sharded module directory.
const ManifestFile = "MANIFEST"

// MaxShards bounds the partition count; beyond this the per-shard
// overhead (file handles, locks, directories) stops buying anything.
const MaxShards = 1024

// ErrReplaying is wrapped by every operation routed to a shard whose
// recovery (snapshot load + WAL replay) has not finished yet. It is a
// retryable condition, not a failure: serving layers should map it to
// 503, and WaitReady blocks until it can no longer occur.
var ErrReplaying = errors.New("shardedbypass: shard is replaying")

// Options tunes a sharded bypass.
type Options struct {
	// Shards is the partition count S; 1 when zero. When opening an
	// existing durable module, Shards must match the manifest (or be zero
	// to adopt it); a manifest-less root-layout module is one shard.
	Shards int
	// Durable tunes each shard's WAL behaviour (durable mode only). Note
	// CompactEvery is per shard: S shards compact independently, each
	// after its own CompactEvery journaled inserts.
	Durable core.DurableOptions
	// Obs, when non-nil, registers per-shard instruments (insert
	// latency histograms, tree-size and WAL-size gauges) and is
	// propagated into each shard's DurableOptions for the WAL and
	// snapshot histograms. Every instrument carries ObsLabels plus a
	// shard="N" label.
	Obs *obsv.Registry
	// ObsLabels are attached to every instrument this module registers
	// (typically the collection name).
	ObsLabels []obsv.Label
}

// shard is one partition: an independent Bypass plus its durability and
// counters. byp/durable/err are written exactly once, before ready is
// closed; readers must observe ready first.
type shard struct {
	id      int
	ready   chan struct{}
	byp     *core.Bypass        // always set once ready (points into durable when durable)
	durable *core.DurableBypass // nil in memory mode
	err     error               // recovery failure, set before ready closes
	inserts atomic.Int64        // accepted (tree-changing) inserts since open
	insertH *obsv.Histogram     // optional: per-shard insert latency

	// Lifecycle counters for memory-mode shards (durable shards count
	// inside core.DurableBypass, which also sees its own insert-path
	// compactions).
	compactions atomic.Uint64
	reclaimed   atomic.Uint64
}

// compactAged runs one aged compaction on this shard through its durable
// write path when present.
func (p *shard) compactAged() (core.CompactionStats, error) {
	var (
		sts []core.CompactionStats
		err error
	)
	if p.durable != nil {
		sts, err = p.durable.CompactAged()
	} else {
		sts, err = p.byp.CompactAged()
	}
	if err != nil {
		return core.CompactionStats{}, err
	}
	st := sts[0]
	if p.durable == nil {
		p.compactions.Add(1)
		p.reclaimed.Add(uint64(st.Reclaimed))
	}
	return st, nil
}

// lifecycleCounters reports this shard's aged-compaction counters from
// whichever layer tracks them.
func (p *shard) lifecycleCounters() (compactions, reclaimed uint64) {
	if p.durable != nil {
		return p.durable.Compactions(), p.durable.Reclaimed()
	}
	return p.compactions.Load(), p.reclaimed.Load()
}

// observe registers this shard's instruments in reg; the journal-size
// gauge exists for durable modules only (a memory-mode shard has no
// journal to report). The gauge callbacks tolerate every shard state:
// they report zero until recovery settles and after a recovery failure.
func (p *shard) observe(reg *obsv.Registry, labels []obsv.Label, durable bool) {
	if reg == nil {
		return
	}
	ls := append(append([]obsv.Label(nil), labels...), obsv.L("shard", strconv.Itoa(p.id)))
	p.insertH = reg.Histogram("fb_shard_insert_seconds", "Per-shard bypass insert latency (tree insert + WAL append).", obsv.LatencyBounds(), ls...)
	live := func() bool {
		select {
		case <-p.ready:
			return p.err == nil
		default:
			return false
		}
	}
	reg.GaugeFunc("fb_tree_points", "Simplex Tree stored points per shard.", func() float64 {
		if !live() {
			return 0
		}
		return float64(p.byp.Stats().Points)
	}, ls...)
	reg.GaugeFunc("fb_tree_depth", "Simplex Tree depth per shard.", func() float64 {
		if !live() {
			return 0
		}
		return float64(p.byp.Stats().Depth)
	}, ls...)
	if !durable {
		return
	}
	reg.GaugeFunc("fb_wal_bytes", "Journal on-disk size per shard (recovery debt).", func() float64 {
		if !live() {
			return 0
		}
		return float64(p.durable.WALSize())
	}, ls...)
}

// Sharded is an S-way partitioned bypass. It satisfies the serving
// layer's Bypass interface (D/P/Predict/Insert/Stats), routing every call
// by engine.ShardOf, and adds the partition-aware surface the serving
// layer's per-shard cache generations build on (NumShards, ShardOf,
// ShardInfos).
type Sharded struct {
	d, p   int
	dir    string // "" in memory mode
	shards []*shard
}

// ShardInfo is one shard's point-in-time counters, exported by serving
// layers (fbserve /stats).
type ShardInfo struct {
	Shard     int    `json:"shard"`
	Replaying bool   `json:"replaying,omitempty"`
	Error     string `json:"error,omitempty"`    // recovery failure; terminal, unlike Replaying
	Degraded  string `json:"degraded,omitempty"` // persistence failure; shard serves read-only
	Points    int    `json:"points"`
	Depth     int    `json:"depth"`
	Inserts   int64  `json:"inserts"`
	Journaled int    `json:"journaled,omitempty"`
	WALBytes  int64  `json:"wal_bytes,omitempty"`
	// Lifecycle plane: aged compactions completed on this shard and the
	// vertices they reclaimed.
	Compactions uint64 `json:"compactions,omitempty"`
	Reclaimed   uint64 `json:"reclaimed,omitempty"`
}

// shardDir is the path-mapping rule of the durable layout: shard i of the
// module at dir lives in dir/shard-000, dir/shard-001, ... (three digits
// are a display convention, not a limit — shard-1023 is fine), except in
// a root-layout module, whose single shard is the module root itself.
func shardDir(dir string, i int, rootLayout bool) string {
	if rootLayout {
		return dir
	}
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// isRootLayout reports whether dir holds a module written at its root by
// core.OpenDurable: a snapshot or journal with no manifest beside it.
func isRootLayout(fsys persist.FS, dir string) bool {
	for _, name := range []string{core.SnapshotFile, core.JournalFile} {
		if _, err := fsys.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

func validateOptions(d, p int, opts Options) (int, error) {
	if d <= 0 || p < 0 {
		return 0, fmt.Errorf("shardedbypass: invalid dimensions D=%d, P=%d", d, p)
	}
	s := opts.Shards
	if s == 0 {
		s = 1
	}
	if s < 0 || s > MaxShards {
		return 0, fmt.Errorf("shardedbypass: shard count %d outside [1, %d]", opts.Shards, MaxShards)
	}
	return s, nil
}

// shardConfig divides the module-level quotas across S shards —
// ceil(total/S) each — so the aggregate bound holds up to rounding
// while every shard enforces its slice independently (no cross-shard
// accounting on the insert path).
func shardConfig(cfg core.Config, s int) core.Config {
	if s > 1 {
		if cfg.MaxVertices > 0 {
			cfg.MaxVertices = (cfg.MaxVertices + s - 1) / s
		}
		if cfg.MaxBytes > 0 {
			cfg.MaxBytes = (cfg.MaxBytes + int64(s) - 1) / int64(s)
		}
	}
	return cfg
}

// New creates an in-memory sharded bypass (no WAL, no directory): S
// independent core.Bypass partitions behind one routing front. Every
// shard is ready immediately.
func New(d, p int, cfg core.Config, opts Options) (*Sharded, error) {
	s, err := validateOptions(d, p, opts)
	if err != nil {
		return nil, err
	}
	cfg = shardConfig(cfg, s)
	sh := &Sharded{d: d, p: p, shards: make([]*shard, s)}
	for i := range sh.shards {
		b, err := core.New(d, p, cfg)
		if err != nil {
			return nil, err
		}
		ready := make(chan struct{})
		close(ready)
		sh.shards[i] = &shard{id: i, ready: ready, byp: b}
		sh.shards[i].observe(opts.Obs, opts.ObsLabels, false)
	}
	return sh, nil
}

// Open opens (or initializes) a durable sharded module rooted at dir,
// recovering every shard in parallel, and blocks until all shards are
// ready. See OpenAsync for the layout and recovery contract.
func Open(dir string, d, p int, cfg core.Config, opts Options) (*Sharded, error) {
	sh, err := OpenAsync(dir, d, p, cfg, opts)
	if err != nil {
		return nil, err
	}
	if err := sh.WaitReady(); err != nil {
		_ = sh.Close()
		return nil, err
	}
	return sh, nil
}

// OpenAsync opens a durable sharded module and returns as soon as the
// manifest is settled, with every shard recovering (snapshot load + WAL
// replay) in its own goroutine. Operations routed to a shard still
// replaying fail with an error wrapping ErrReplaying; WaitReady blocks
// until every shard is live (or reports the first recovery failure).
//
// On first open the manifest is written before any shard directory is
// created, so a crash between manifest and shard creation recovers as S
// empty shards. On later opens the manifest is the source of truth:
// opts.Shards must match it (zero adopts it), and a geometry mismatch is
// an error, never a silent reshard. A root-layout module (see shardDir)
// opens in place as its one shard; asking it for more is refused the
// same way.
func OpenAsync(dir string, d, p int, cfg core.Config, opts Options) (*Sharded, error) {
	s, err := validateOptions(d, p, opts)
	if err != nil {
		return nil, err
	}
	fsys := persist.OrOS(opts.Durable.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	manifestPath := filepath.Join(dir, ManifestFile)
	rootLayout := false
	m, err := persist.LoadManifestFS(fsys, manifestPath)
	switch {
	case err == nil:
		if opts.Shards != 0 && m.Shards != opts.Shards {
			return nil, fmt.Errorf("shardedbypass: module at %s has %d shards, asked for %d (resharding is an explicit migration)", dir, m.Shards, opts.Shards)
		}
		if m.Dim != d || m.OQPDim != d+p {
			return nil, fmt.Errorf("shardedbypass: module at %s is for D=%d N=%d, want D=%d N=%d", dir, m.Dim, m.OQPDim, d, d+p)
		}
		s = m.Shards
	case errors.Is(err, os.ErrNotExist) && isRootLayout(fsys, dir):
		// The module's learned state must not be silently shadowed by S
		// fresh empty shards, and nothing is added to its directory: it
		// keeps opening through core.OpenDurable as well.
		if s != 1 {
			return nil, fmt.Errorf("shardedbypass: module at %s has 1 shard (root layout, no manifest), asked for %d (resharding is an explicit migration)", dir, s)
		}
		rootLayout = true
	case errors.Is(err, os.ErrNotExist):
		m = persist.Manifest{Shards: s, Dim: d, OQPDim: d + p}
		if err := persist.SaveManifestFS(fsys, manifestPath, m); err != nil {
			return nil, fmt.Errorf("shardedbypass: writing manifest: %w", err)
		}
	default:
		return nil, fmt.Errorf("shardedbypass: reading manifest: %w", err)
	}

	shardCfg := shardConfig(cfg, s)
	sh := &Sharded{d: d, p: p, dir: dir, shards: make([]*shard, s)}
	for i := range sh.shards {
		sh.shards[i] = &shard{id: i, ready: make(chan struct{})}
		sh.shards[i].observe(opts.Obs, opts.ObsLabels, true)
	}
	for _, p0 := range sh.shards {
		go func(p0 *shard) {
			defer close(p0.ready)
			sd := shardDir(dir, p0.id, rootLayout)
			dopts := opts.Durable
			if opts.Obs != nil {
				dopts.Obs = opts.Obs
				dopts.ObsLabels = append(append([]obsv.Label(nil), opts.ObsLabels...), obsv.L("shard", strconv.Itoa(p0.id)))
			}
			db, err := core.OpenDurable(sd, d, p, shardCfg, dopts)
			if err != nil {
				p0.err = fmt.Errorf("shardedbypass: shard %d: %w", p0.id, err)
				return
			}
			// The shard's directory entries (shard-NNN/ in the module dir,
			// tree.fbwl inside it) must be durable before the shard serves:
			// with Options.Durable.Sync an acknowledged insert fsyncs only
			// the WAL's *contents*, and a power loss that erased the
			// never-synced directory entry would make recovery read the
			// missing directory as an empty shard — silently dropping the
			// acked insert. No insert can be acknowledged before ready
			// closes, so syncing here closes the window.
			if err := fsys.SyncDir(sd); err != nil {
				_ = db.Close()
				p0.err = fmt.Errorf("shardedbypass: shard %d: syncing shard directory: %w", p0.id, err)
				return
			}
			if err := fsys.SyncDir(dir); err != nil {
				_ = db.Close()
				p0.err = fmt.Errorf("shardedbypass: shard %d: syncing module directory: %w", p0.id, err)
				return
			}
			p0.durable = db
			p0.byp = db.Bypass
		}(p0)
	}
	return sh, nil
}

// D returns the query-domain dimensionality.
func (s *Sharded) D() int { return s.d }

// P returns the number of distance parameters.
func (s *Sharded) P() int { return s.p }

// NumShards returns the partition count S.
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardOf returns the shard index serving query point q — the pinned
// partition function engine.ShardOf.
func (s *Sharded) ShardOf(q []float64) int { return engine.ShardOf(q, len(s.shards)) }

// get returns shard i if it is live, or an ErrReplaying / recovery error.
func (s *Sharded) get(i int) (*shard, error) {
	p := s.shards[i]
	select {
	case <-p.ready:
		if p.err != nil {
			return nil, p.err
		}
		return p, nil
	default:
		return nil, fmt.Errorf("shardedbypass: shard %d: %w", i, ErrReplaying)
	}
}

// Ready reports whether every shard is live — recovery finished with no
// error. Use Err to tell a failed recovery apart from one still running.
func (s *Sharded) Ready() bool {
	for _, p := range s.shards {
		select {
		case <-p.ready:
			if p.err != nil {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Err returns the first shard's recovery failure without blocking: nil
// while shards are still replaying and when every settled shard
// recovered cleanly.
func (s *Sharded) Err() error {
	for _, p := range s.shards {
		select {
		case <-p.ready:
			if p.err != nil {
				return p.err
			}
		default:
		}
	}
	return nil
}

// WaitReady blocks until every shard finished recovering and returns the
// first (lowest-shard-index) recovery failure, if any.
func (s *Sharded) WaitReady() error {
	for _, p := range s.shards {
		<-p.ready
	}
	for _, p := range s.shards {
		if p.err != nil {
			return p.err
		}
	}
	return nil
}

// Predict returns the OQPs for query point q from q's shard. Reads on
// different shards (and on the same shard) run in parallel; only an
// insert into the same shard contends.
func (s *Sharded) Predict(q []float64) (core.OQP, error) {
	p, err := s.get(s.ShardOf(q))
	if err != nil {
		return core.OQP{}, err
	}
	return p.byp.Predict(q)
}

// insert applies one insert to a live shard through its durable write
// path when present.
func (p *shard) insert(q []float64, oqp core.OQP) (bool, error) {
	var t0 time.Time
	if p.insertH != nil {
		t0 = time.Now()
	}
	var (
		changed bool
		err     error
	)
	if p.durable != nil {
		// The durable layer owns compact-then-retry on quota pressure.
		changed, err = p.durable.Insert(q, oqp)
	} else {
		changed, err = p.byp.Insert(q, oqp)
		if err != nil && errors.Is(err, core.ErrQuotaExceeded) && p.byp.Tree().AgeHorizon() > 0 {
			// Memory-mode compact-then-retry: one aged compaction, one
			// retry iff it reclaimed space. The compaction changed the
			// served tree even when the retry is ε-skipped, so report
			// changed=true either way (per-shard caches must refresh).
			if st, cerr := p.compactAged(); cerr == nil && st.Reclaimed > 0 {
				_, err = p.byp.Insert(q, oqp)
				changed = true
			}
		}
	}
	if changed {
		p.inserts.Add(1)
	}
	if p.insertH != nil {
		p.insertH.ObserveSince(t0)
	}
	return changed, err
}

// Insert stores a converged feedback outcome in q's shard, taking only
// that shard's exclusive lock (and journaling to that shard's WAL in
// durable mode).
func (s *Sharded) Insert(q []float64, oqp core.OQP) (bool, error) {
	p, err := s.get(s.ShardOf(q))
	if err != nil {
		return false, err
	}
	return p.insert(q, oqp)
}

// InsertBatch stores many outcomes, grouped by shard: within a shard,
// pairs apply in their original relative order with single-Insert ε
// semantics; across shards there is no ordering (shards are independent
// learners). It returns the number of pairs that changed some shard; on
// the first error it stops with earlier groups (and the failing shard's
// earlier pairs) applied.
func (s *Sharded) InsertBatch(qs [][]float64, oqps []core.OQP) (int, error) {
	if len(qs) != len(oqps) {
		return 0, fmt.Errorf("shardedbypass: batch has %d points but %d OQPs", len(qs), len(oqps))
	}
	if len(s.shards) == 1 {
		p, err := s.get(0)
		if err != nil {
			return 0, err
		}
		if p.durable != nil {
			// One lock acquisition and one compaction check for the whole
			// batch, exactly as core.DurableBypass journals it.
			stored, err := p.durable.InsertBatch(qs, oqps)
			p.inserts.Add(int64(stored))
			return stored, err
		}
	}
	byShard := make(map[int][]int)
	for i, q := range qs {
		sh := s.ShardOf(q)
		byShard[sh] = append(byShard[sh], i)
	}
	stored := 0
	for sh := 0; sh < len(s.shards); sh++ {
		idxs := byShard[sh]
		if len(idxs) == 0 {
			continue
		}
		p, err := s.get(sh)
		if err != nil {
			return stored, err
		}
		for _, i := range idxs {
			changed, err := p.insert(qs[i], oqps[i])
			if changed {
				stored++
			}
			if err != nil {
				return stored, err
			}
		}
	}
	return stored, nil
}

// Stats aggregates the shape of every live shard's tree: Points, Leaves,
// Nodes and DistinctVertices sum; Depth is the maximum; AvgLeafDepth is
// the leaf-weighted mean. Shards still replaying contribute nothing (the
// snapshot is what is servable right now).
func (s *Sharded) Stats() simplextree.Stats {
	agg := simplextree.Stats{Dim: s.d, OQPDim: s.d + s.p}
	var leafDepthSum float64
	for i := range s.shards {
		p, err := s.get(i)
		if err != nil {
			continue
		}
		st := p.byp.Stats()
		agg.Points += st.Points
		agg.Leaves += st.Leaves
		agg.Nodes += st.Nodes
		agg.DistinctVertices += st.DistinctVertices
		if st.Depth > agg.Depth {
			agg.Depth = st.Depth
		}
		leafDepthSum += st.AvgLeafDepth * float64(st.Leaves)
	}
	if agg.Leaves > 0 {
		agg.AvgLeafDepth = leafDepthSum / float64(agg.Leaves)
	}
	return agg
}

// Walk visits every distinct vertex of every live shard exactly once —
// the module-wide census of the learned mapping (the sharded analogue of
// Bypass.Tree().Walk). It fails if any shard is still replaying or its
// recovery failed: a partial census would silently under-count.
func (s *Sharded) Walk(fn func(v *simplextree.Vertex)) error {
	for i := range s.shards {
		p, err := s.get(i)
		if err != nil {
			return fmt.Errorf("shardedbypass: shard %d: %w", i, err)
		}
		p.byp.Tree().Walk(fn)
	}
	return nil
}

// ShardInfos snapshots every shard's counters (per-shard tree shape,
// accepted inserts, journal depth and WAL bytes); a shard still
// replaying is marked Replaying with zero counters, one whose recovery
// failed carries the error.
func (s *Sharded) ShardInfos() []ShardInfo {
	out := make([]ShardInfo, len(s.shards))
	for i, p := range s.shards {
		out[i] = ShardInfo{Shard: i}
		select {
		case <-p.ready:
		default:
			out[i].Replaying = true
			continue
		}
		if p.err != nil {
			out[i].Error = p.err.Error()
			continue
		}
		st := p.byp.Stats()
		out[i].Points = st.Points
		out[i].Depth = st.Depth
		out[i].Inserts = p.inserts.Load()
		out[i].Compactions, out[i].Reclaimed = p.lifecycleCounters()
		if p.durable != nil {
			out[i].Journaled = p.durable.Journaled()
			out[i].WALBytes = p.durable.WALSize()
			if derr := p.durable.Degraded(); derr != nil {
				out[i].Degraded = derr.Error()
			}
		}
	}
	return out
}

// Degraded reports the first settled shard that has flipped to
// read-only after a persistence failure, or nil when no shard is
// degraded. The returned error satisfies errors.Is(err,
// core.ErrDegraded); predictions on every shard (including degraded
// ones) stay live.
func (s *Sharded) Degraded() error {
	for i := range s.shards {
		p := s.shards[i]
		select {
		case <-p.ready:
		default:
			continue
		}
		if p.durable == nil || p.err != nil {
			continue
		}
		if derr := p.durable.Degraded(); derr != nil {
			return fmt.Errorf("shardedbypass: shard %d: %w", i, derr)
		}
	}
	return nil
}

// Journaled sums the journaled-insert counts of every live shard
// (durable mode).
func (s *Sharded) Journaled() int {
	total := 0
	for i := range s.shards {
		if p, err := s.get(i); err == nil && p.durable != nil {
			total += p.durable.Journaled()
		}
	}
	return total
}

// Compact snapshots every shard's tree and truncates its journal — the
// all-shard compaction of a graceful shutdown. Shards compact in
// parallel; the first error is returned after every shard finished (a
// failed compaction of shard k must not abort shard j's).
func (s *Sharded) Compact() error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		p, err := s.get(i)
		if err != nil {
			errs[i] = err
			continue
		}
		if p.durable == nil {
			continue
		}
		wg.Add(1)
		go func(i int, p *shard) {
			defer wg.Done()
			if err := p.durable.Compact(); err != nil {
				errs[i] = fmt.Errorf("shardedbypass: compacting shard %d: %w", i, err)
			}
		}(i, p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// CompactAged runs one aged compaction on every live shard in parallel,
// returning per-shard stats indexed by shard id — the scoped shape
// serving layers need to invalidate only the shards that actually
// reclaimed something. Shards still replaying (or whose recovery failed)
// contribute zero stats and an error; like Compact, one shard's failure
// never aborts another's compaction, and the joined error is returned
// after every shard finished.
func (s *Sharded) CompactAged() ([]core.CompactionStats, error) {
	stats := make([]core.CompactionStats, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		p, err := s.get(i)
		if err != nil {
			errs[i] = err
			continue
		}
		wg.Add(1)
		go func(i int, p *shard) {
			defer wg.Done()
			st, err := p.compactAged()
			if err != nil {
				errs[i] = fmt.Errorf("shardedbypass: compacting shard %d: %w", i, err)
				return
			}
			stats[i] = st
		}(i, p)
	}
	wg.Wait()
	return stats, errors.Join(errs...)
}

// Close waits for every shard's recovery to settle and closes each
// shard's journal. The module must not be used afterwards; reopen with
// Open.
func (s *Sharded) Close() error {
	var errs []error
	for _, p := range s.shards {
		<-p.ready
		if p.durable != nil {
			if err := p.durable.Close(); err != nil {
				errs = append(errs, fmt.Errorf("shardedbypass: closing shard %d: %w", p.id, err))
			}
		}
	}
	return errors.Join(errs...)
}
