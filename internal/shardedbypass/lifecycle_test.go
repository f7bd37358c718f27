package shardedbypass

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/obsv"
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
		p.byp.Tree().Walk(func(v *simplextree.Vertex) {
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
			binary.LittleEndian.PutUint64(b[:], v.Stamp())
			buf = append(buf, b[:]...)
			set[string(buf)] = true
		})
	}
	return set
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

// openShardedCompacting opens the 3-shard lifecycle harness: aging on
// (horizon 2) and journal-depth auto-compaction disabled, so the only
// snapshot swaps in a crash schedule are the workload's explicit
// CompactAged calls.
func openShardedCompacting(dir string, fs *faultfs.FS) (*Sharded, error) {
	durable := core.DurableOptions{CompactEvery: 1 << 30, Sync: true}
	if fs != nil {
		durable.FS = fs
	}
	return Open(dir, 3, 2, core.Config{Epsilon: 0, AgeHorizon: 2}, Options{
		Shards:  3,
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
// compaction swap for the 3-shard layout. The healthy run records the
// union census sequence S[0..len(ops)]; a crashed run with k acked ops
// must recover between the floor and ceiling of the in-flight op: an
// insert only adds (S[k] ⊆ got ⊆ S[k+1]); a module-wide compaction only
// removes (S[k+1] ⊆ got ⊆ S[k]) — and because shards swap
// independently, a crash mid-compaction legitimately recovers a partial
// state (some shards post, some pre) that the sandwich still brackets.
// Below the floor is acked-insert loss; above the ceiling is a hybrid
// state no run ever held.
func TestCrashScheduleShardedCompaction(t *testing.T) {
	ops := shardedLifecycleOps()

	// Healthy run: census after every op.
	sh, err := openShardedCompacting(t.TempDir(), nil)
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
	csh, err := openShardedCompacting(t.TempDir(), counting)
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
	if m < 30 {
		t.Fatalf("suspiciously short schedule: %d mutating ops", m)
	}
	t.Logf("sharded compaction crash schedule: %d mutating filesystem operations across 3 shards", m)

	for n := 1; n <= m; n++ {
		dir := t.TempDir()
		fs := faultfs.New(nil)
		fs.SetCrashAt(n)

		acked := 0
		opened := false
		if sh, err := openShardedCompacting(dir, fs); err == nil {
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

		recovered, err := openShardedCompacting(dir, nil)
		if err != nil {
			t.Fatalf("crash point %d/%d: recovery failed: %v", n, m, err)
		}
		got := stampedShardedVertexSet(recovered)
		if err := recovered.Close(); err != nil {
			t.Fatalf("crash point %d/%d: closing recovered module: %v", n, m, err)
		}

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

// TestShardedQuotaCompactRetryMemoryBatch: InsertBatch on a single-shard
// in-memory module takes the same per-insert path as Insert — at its
// vertex quota with aging on, the batch compacts, retries and is
// accepted whole instead of stopping at ErrQuotaExceeded, and every pair
// is timed. Same geometry as TestShardedQuotaCompactRetryMemory.
func TestShardedQuotaCompactRetryMemoryBatch(t *testing.T) {
	const d, p = 3, 2
	sh, err := New(d, p, core.Config{Epsilon: 0, MaxVertices: 8, AgeHorizon: 2},
		Options{Shards: 1, Obs: obsv.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	qs := make([][]float64, 5)
	oqps := make([]core.OQP, 5)
	for i := range qs {
		qs[i], oqps[i] = randomSimplexPoint(rng, d), randomOQP(rng, d, p)
	}
	stored, err := sh.InsertBatch(qs, oqps)
	if err != nil {
		t.Fatalf("batch at the quota: %v", err)
	}
	if stored != len(qs) {
		t.Fatalf("batch stored %d of %d pairs", stored, len(qs))
	}
	info := sh.ShardInfos()[0]
	if info.Compactions != 1 || info.Reclaimed == 0 {
		t.Fatalf("quota-pressure compaction: %d passes reclaimed %d, want 1 pass reclaiming something", info.Compactions, info.Reclaimed)
	}
	if info.Inserts != int64(len(qs)) {
		t.Errorf("shard counted %d inserts, want %d", info.Inserts, len(qs))
	}
	if got := sh.shards[0].insertH.Count(); got != uint64(len(qs)) {
		t.Errorf("fb_shard_insert_seconds observed %d inserts, want %d", got, len(qs))
	}
}
