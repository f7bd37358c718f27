package shardedbypass

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/simplextree"
)

// stampedShardedVertexSet unions the bitwise Point ++ Value ++ Stamp
// keys of every live shard's tree — the stamped variant of
// shardedVertexSet, so recovery is checked down to the vertex ages the
// aging horizon acts on. Identical corner vertices dedupe in the union.
func stampedShardedVertexSet(s *Sharded) map[string]bool {
	set := make(map[string]bool)
	for i := range s.shards {
		p := s.shards[i]
		select {
		case <-p.ready:
		default:
			continue
		}
		if p.err != nil || p.byp == nil {
			continue
		}
		for k := range stampedTreeSet(p.byp.Tree()) {
			set[k] = true
		}
	}
	return set
}

// stampedTreeSet is one tree's bitwise Point ++ Value ++ Stamp keys.
func stampedTreeSet(tree *simplextree.Tree) map[string]bool {
	set := make(map[string]bool)
	for _, v := range tree.Snapshot().Vertices {
		buf := make([]byte, 0, 8*(len(v.Point)+len(v.Value)+1))
		var b [8]byte
		for _, x := range v.Point {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			buf = append(buf, b[:]...)
		}
		for _, x := range v.Value {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			buf = append(buf, b[:]...)
		}
		binary.LittleEndian.PutUint64(b[:], v.Stamp)
		buf = append(buf, b[:]...)
		set[string(buf)] = true
	}
	return set
}

// hasVertexAt reports whether tree holds a vertex bitwise equal to q.
func hasVertexAt(tree *simplextree.Tree, q []float64) bool {
	found := false
	tree.Walk(func(v *simplextree.Vertex) {
		if len(v.Point) != len(q) {
			return
		}
		for i := range q {
			if math.Float64bits(v.Point[i]) != math.Float64bits(q[i]) {
				return
			}
		}
		found = true
	})
	return found
}

func shardedSetSubset(sub, super map[string]bool) bool {
	for k := range sub {
		if !super[k] {
			return false
		}
	}
	return true
}

func shardedSetEqual(a, b map[string]bool) bool {
	return len(a) == len(b) && shardedSetSubset(a, b)
}

// shardedLifecycleOp is one step of the deterministic sharded
// compaction workload: a single routed insert or a module-wide aged
// compaction (every shard rebuilds and swaps).
type shardedLifecycleOp struct {
	compact bool
	q       []float64
	oqp     core.OQP
}

// shardedLifecycleOps builds the fixed schedule: 12 inserts with an
// aged compaction after every 4th. Each shard's logical clock only
// advances on its own inserts, so the horizon-2 cutoff starts
// reclaiming once a shard has seen more than two — with seed 47 the
// healthy run reclaims on the later compactions.
func shardedLifecycleOps() []shardedLifecycleOp {
	const d, p = 3, 2
	rng := rand.New(rand.NewSource(47))
	var ops []shardedLifecycleOp
	for i := 0; i < 12; i++ {
		ops = append(ops, shardedLifecycleOp{q: randomSimplexPoint(rng, d), oqp: randomOQP(rng, d, p)})
		if (i+1)%4 == 0 {
			ops = append(ops, shardedLifecycleOp{compact: true})
		}
	}
	return ops
}

// openShardedCompacting opens the lifecycle harness at the given shard
// count: aging on (horizon 2) and journal-depth auto-compaction
// disabled, so the only snapshot swaps in a crash schedule are the
// workload's explicit CompactAged calls.
func openShardedCompacting(dir string, shards int, fs *faultfs.FS) (*Sharded, error) {
	durable := core.DurableOptions{CompactEvery: 1 << 30, Sync: true}
	if fs != nil {
		durable.FS = fs
	}
	return Open(dir, 3, 2, core.Config{Epsilon: 0, AgeHorizon: 2}, Options{
		Shards:  shards,
		Durable: durable,
	})
}

func applyShardedLifecycleOp(s *Sharded, op shardedLifecycleOp) error {
	if op.compact {
		_, err := s.CompactAged()
		return err
	}
	_, err := s.Insert(op.q, op.oqp)
	return err
}

// TestCrashScheduleShardedCompaction enumerates every crash point along
// manifest-write → shard-open → insert → WAL-append → per-shard
// compaction commit at one shard and at three. The healthy run records the
// union census sequence S[0..len(ops)]; a crashed run with k acked ops
// must recover between the floor and ceiling of the in-flight op: an
// insert only adds (S[k] ⊆ got ⊆ S[k+1]); a module-wide compaction only
// removes (S[k+1] ⊆ got ⊆ S[k]) — and because shards swap
// independently, a crash mid-compaction legitimately recovers a partial
// state (some shards post, some pre) that the sandwich still brackets.
// Below the floor is acked-insert loss; above the ceiling is a hybrid
// state no run ever held.
func TestCrashScheduleShardedCompaction(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testCrashScheduleShardedCompaction(t, shards)
		})
	}
}

func testCrashScheduleShardedCompaction(t *testing.T, shards int) {
	ops := shardedLifecycleOps()

	// Healthy run: census after every op.
	sh, err := openShardedCompacting(t.TempDir(), shards, nil)
	if err != nil {
		t.Fatalf("healthy open: %v", err)
	}
	seq := []map[string]bool{stampedShardedVertexSet(sh)}
	reclaimed := 0
	for i, op := range ops {
		if err := applyShardedLifecycleOp(sh, op); err != nil {
			t.Fatalf("healthy op %d: %v", i, err)
		}
		seq = append(seq, stampedShardedVertexSet(sh))
	}
	for _, info := range sh.ShardInfos() {
		reclaimed += int(info.Reclaimed)
	}
	if reclaimed == 0 {
		t.Fatal("healthy workload reclaimed nothing; the schedule misses the aging path")
	}
	if err := sh.Close(); err != nil {
		t.Fatalf("healthy close: %v", err)
	}

	// Counting run: measure the schedule length including Close.
	counting := faultfs.New(nil)
	csh, err := openShardedCompacting(t.TempDir(), shards, counting)
	if err != nil {
		t.Fatalf("counting open: %v", err)
	}
	for i, op := range ops {
		if err := applyShardedLifecycleOp(csh, op); err != nil {
			t.Fatalf("counting op %d: %v", i, err)
		}
	}
	if !shardedSetEqual(stampedShardedVertexSet(csh), seq[len(ops)]) {
		t.Fatal("counting run diverged from the healthy census sequence")
	}
	if err := csh.Close(); err != nil {
		t.Fatalf("counting close: %v", err)
	}
	m := counting.Ops()
	if m < 10*shards {
		t.Fatalf("suspiciously short schedule: %d mutating ops across %d shards", m, shards)
	}
	t.Logf("sharded compaction crash schedule: %d mutating filesystem operations across %d shards", m, shards)

	for n := 1; n <= m; n++ {
		dir := t.TempDir()
		fs := faultfs.New(nil)
		fs.SetCrashAt(n)

		acked := 0
		opened := false
		if sh, err := openShardedCompacting(dir, shards, fs); err == nil {
			opened = true
			for _, op := range ops {
				if applyShardedLifecycleOp(sh, op) != nil {
					break // the FS is dead after the crash; later ops all fail
				}
				acked++
			}
			_ = sh.Close()
		}
		if !fs.Crashed() {
			t.Fatalf("crash point %d/%d never fired", n, m)
		}

		recovered, err := openShardedCompacting(dir, shards, nil)
		if err != nil {
			t.Fatalf("crash point %d/%d: recovery failed: %v", n, m, err)
		}
		got := stampedShardedVertexSet(recovered)
		if err := recovered.Close(); err != nil {
			t.Fatalf("crash point %d/%d: closing recovered module: %v", n, m, err)
		}
		onlyLogs(t, fmt.Sprintf("crash point %d/%d", n, m), dir, shards, false)

		var lo, hi map[string]bool
		switch {
		case !opened:
			lo, hi = seq[0], seq[0]
		case acked == len(ops):
			lo, hi = seq[acked], seq[acked]
		case ops[acked].compact:
			lo, hi = seq[acked+1], seq[acked]
		default:
			lo, hi = seq[acked], seq[acked+1]
		}
		if !shardedSetSubset(lo, got) {
			t.Fatalf("crash point %d/%d: acknowledged state lost (acked %d ops, recovered %d vertices, floor %d)",
				n, m, acked, len(got), len(lo))
		}
		if !shardedSetSubset(got, hi) {
			t.Fatalf("crash point %d/%d: hybrid state: recovery holds vertices neither pre- nor post-op census had (acked %d ops)",
				n, m, acked)
		}
	}
}

// TestShardedAgingDisabledParity pins the disabled-horizon no-op at the
// sharded layer: with AgeHorizon 0, CompactAged reclaims nothing on any
// shard and the union stamped census is bitwise unchanged.
func TestShardedAgingDisabledParity(t *testing.T) {
	const d, p = 3, 2
	sh, err := New(d, p, core.Config{Epsilon: 0}, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 18; i++ {
		if _, err := sh.Insert(randomSimplexPoint(rng, d), randomOQP(rng, d, p)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	before := stampedShardedVertexSet(sh)
	stats, err := sh.CompactAged()
	if err != nil {
		t.Fatalf("CompactAged: %v", err)
	}
	for shard, st := range stats {
		if st.Reclaimed != 0 {
			t.Fatalf("shard %d: disabled horizon reclaimed %d vertices", shard, st.Reclaimed)
		}
	}
	if !shardedSetEqual(before, stampedShardedVertexSet(sh)) {
		t.Fatal("CompactAged changed the stamped census with aging disabled")
	}
}

// TestShardedQuotaCompactRetryMemory pins the memory-mode
// compact-then-retry branch: a single-shard in-memory module at its
// vertex quota compacts under insert pressure and acknowledges the
// retried insert instead of surfacing ErrQuotaExceeded. Same geometry
// as the durable test: 4 corners + quota 8 admits 4 inserts, the 5th
// trips the quota at clock 4, and the horizon-2 cutoff reclaims the
// stamp-1 vertex.
func TestShardedQuotaCompactRetryMemory(t *testing.T) {
	const d, p = 3, 2
	sh, err := New(d, p, core.Config{Epsilon: 0, MaxVertices: 8, AgeHorizon: 2}, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 5; i++ {
		changed, err := sh.Insert(randomSimplexPoint(rng, d), randomOQP(rng, d, p))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if !changed {
			t.Fatalf("insert %d not acknowledged", i)
		}
	}
	infos := sh.ShardInfos()
	if len(infos) != 1 {
		t.Fatalf("shard infos: got %d, want 1", len(infos))
	}
	if infos[0].Compactions != 1 {
		t.Fatalf("compactions after quota retry: got %d, want 1", infos[0].Compactions)
	}
	if infos[0].Reclaimed == 0 {
		t.Fatal("quota-pressure compaction reclaimed nothing")
	}
}

// quotaModule is the surface TestQuotaCompactRetryEveryShape drives,
// adapted from each module type.
type quotaModule interface {
	Insert(q []float64, oqp core.OQP) (bool, error)
	Tree() *simplextree.Tree // shard 0's
	Counters() (compactions, reclaimed uint64)
	Close() error
}

type coreModule struct{ *core.Bypass }

func (m coreModule) Counters() (uint64, uint64) { return m.Compactions(), m.Reclaimed() }
func (m coreModule) Close() error               { return nil }

type durableModule struct{ *core.DurableBypass }

func (m durableModule) Counters() (uint64, uint64) { return m.Compactions(), m.Reclaimed() }

type shardedModule struct{ *Sharded }

func (m shardedModule) Tree() *simplextree.Tree { return m.shards[0].byp.Tree() }
func (m shardedModule) Counters() (uint64, uint64) {
	info := m.ShardInfos()[0]
	return info.Compactions, info.Reclaimed
}

// TestQuotaCompactRetryEveryShape pins the one compact-then-retry over
// the four module shapes — core.New, core.OpenDurable, and New and Open
// at S=1: the same inserts return the same (changed, err) sequence, one
// aged compaction reclaims space for the insert that trips the quota,
// and the shapes end on the same stamped census. Geometry: d=3 gives 4
// corners, quota 8 admits 4 inserts; the 5th trips the quota at clock 4,
// and the horizon-2 cutoff reclaims the stamp-1 vertex.
func TestQuotaCompactRetryEveryShape(t *testing.T) {
	const d, p = 3, 2
	durable := core.DurableOptions{CompactEvery: 1 << 30, Sync: true}
	shapes := []struct {
		name string
		open func(dir string, cfg core.Config) (quotaModule, error)
	}{
		{"core.New", func(_ string, cfg core.Config) (quotaModule, error) {
			b, err := core.New(d, p, cfg)
			return coreModule{b}, err
		}},
		{"core.OpenDurable", func(dir string, cfg core.Config) (quotaModule, error) {
			db, err := core.OpenDurable(dir, d, p, cfg, durable)
			return durableModule{db}, err
		}},
		{"shardedbypass.New", func(_ string, cfg core.Config) (quotaModule, error) {
			sh, err := New(d, p, cfg, Options{Shards: 1})
			return shardedModule{sh}, err
		}},
		{"shardedbypass.Open", func(dir string, cfg core.Config) (quotaModule, error) {
			sh, err := Open(dir, d, p, cfg, Options{Shards: 1, Durable: durable})
			return shardedModule{sh}, err
		}},
	}

	// Every insert is acknowledged: the 5th after its compact-then-retry.
	const want = "[{true <nil>} {true <nil>} {true <nil>} {true <nil>} {true <nil>}]"
	type outcome struct {
		changed bool
		err     error
	}
	var wantCensus map[string]bool
	for _, shape := range shapes {
		m, err := shape.open(t.TempDir(), core.Config{Epsilon: 0, MaxVertices: 8, AgeHorizon: 2})
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		rng := rand.New(rand.NewSource(61))
		pts := make([][]float64, 5)
		var got []outcome
		for i := range pts {
			pts[i] = randomSimplexPoint(rng, d)
			changed, err := m.Insert(pts[i], randomOQP(rng, d, p))
			got = append(got, outcome{changed, err})
		}
		if fmt.Sprint(got) != want {
			t.Errorf("%s: (changed, err) sequence %v, want %s", shape.name, got, want)
		}
		if compactions, reclaimed := m.Counters(); compactions != 1 || reclaimed == 0 {
			t.Errorf("%s: %d compactions reclaimed %d vertices, want 1 compaction reclaiming some", shape.name, compactions, reclaimed)
		}
		tree := m.Tree()
		if !hasVertexAt(tree, pts[4]) {
			t.Errorf("%s: retried insert missing from the tree", shape.name)
		}
		if hasVertexAt(tree, pts[0]) {
			t.Errorf("%s: oldest vertex survived the quota-pressure compaction", shape.name)
		}
		census := stampedTreeSet(tree)
		if wantCensus == nil {
			wantCensus = census
		} else if !shardedSetEqual(census, wantCensus) {
			t.Errorf("%s: stamped census differs from %s's", shape.name, shapes[0].name)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("%s: close: %v", shape.name, err)
		}
	}
}
