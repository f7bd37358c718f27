package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/simplextree"
)

// stampedVertexSet collects a tree's vertices as bitwise
// Point ++ Value ++ Stamp keys. Unlike vertexSet it distinguishes ages,
// so recovery must reproduce not just the geometry but the lifecycle
// state the aging horizon acts on.
func stampedVertexSet(tree *simplextree.Tree) map[string]bool {
	set := make(map[string]bool)
	c := tree.Snapshot().Census
	for i := range c.Stamps {
		point, value, stamp := c.At(i)
		buf := make([]byte, 0, 8*(len(point)+len(value)+1))
		var b [8]byte
		for _, x := range point {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			buf = append(buf, b[:]...)
		}
		for _, x := range value {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			buf = append(buf, b[:]...)
		}
		binary.LittleEndian.PutUint64(b[:], stamp)
		buf = append(buf, b[:]...)
		set[string(buf)] = true
	}
	return set
}

func setSubset(sub, super map[string]bool) bool {
	for k := range sub {
		if !super[k] {
			return false
		}
	}
	return true
}

func setEqual(a, b map[string]bool) bool {
	return len(a) == len(b) && setSubset(a, b)
}

// lifecycleOp is one step of the deterministic compaction workload:
// either a single insert or an explicit aged compaction.
type lifecycleOp struct {
	compact bool
	q       []float64
	oqp     OQP
}

// lifecycleOps builds the fixed schedule: 10 inserts with an aged
// compaction after every 4th. With AgeHorizon 4 the first compaction
// (clock 4) reclaims nothing and the second (clock 8, cutoff 4)
// reclaims the first three inserts — the schedule exercises both the
// no-op and the reclaiming swap.
func lifecycleOps() []lifecycleOp {
	const d, p = 3, 2
	rng := rand.New(rand.NewSource(47))
	var ops []lifecycleOp
	for i := 0; i < 10; i++ {
		ops = append(ops, lifecycleOp{q: randomSimplexPoint(rng, d), oqp: randomOQP(rng, d, p)})
		if (i+1)%4 == 0 {
			ops = append(ops, lifecycleOp{compact: true})
		}
	}
	return ops
}

// openCompacting opens the lifecycle harness module: aging on
// (horizon 4) and the CompactEvery trigger at compactEvery — 1<<30 keeps
// it out of the way, so the only log commits in a crash schedule are
// the workload's explicit Compact calls.
func openCompacting(dir string, fs *faultfs.FS, compactEvery int) (*Bypass, error) {
	opts := DurableOptions{CompactEvery: compactEvery, Sync: true}
	if fs != nil {
		opts.FS = fs
	}
	return OpenDurable(dir, 3, 2, Config{Epsilon: 0, AgeHorizon: 4}, opts)
}

func applyLifecycleOp(db *Bypass, op lifecycleOp) error {
	if op.compact {
		return db.Compact()
	}
	_, err := db.Insert(op.q, op.oqp)
	return err
}

// healthyCensuses runs ops on a healthy module and returns the stamped
// census before the first op and after each.
func healthyCensuses(t *testing.T, ops []lifecycleOp) []map[string]bool {
	t.Helper()
	db, err := openCompacting(t.TempDir(), nil, 1<<30)
	if err != nil {
		t.Fatalf("healthy open: %v", err)
	}
	seq := []map[string]bool{stampedVertexSet(db.Tree())}
	for i, op := range ops {
		if err := applyLifecycleOp(db, op); err != nil {
			t.Fatalf("healthy op %d: %v", i, err)
		}
		seq = append(seq, stampedVertexSet(db.Tree()))
	}
	if db.Reclaimed() == 0 {
		t.Fatal("healthy workload reclaimed nothing; the schedule misses the aging path")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("healthy close: %v", err)
	}
	return seq
}

// TestCrashScheduleCompaction enumerates every crash point along
// insert → WAL-append → Compact (aged rebuild, log commit, swap). A healthy run
// records the census sequence S[0..len(ops)] (stamped, bitwise); then
// for each n a fresh module runs the same ops with a kill at the nth
// mutating filesystem operation. With k ops acknowledged before the
// first failure, recovery must land between S[k] and the state the
// in-flight op was moving toward: an insert only adds (S[k] ⊆ got ⊆
// S[k+1]), a compaction only removes (S[k+1] ⊆ got ⊆ S[k] — survivors
// re-insert bitwise, corners carry over). Anything below the floor is
// an acknowledged loss; anything above the ceiling is a hybrid state
// neither run ever held.
func TestCrashScheduleCompaction(t *testing.T) {
	ops := lifecycleOps()
	seq := healthyCensuses(t, ops)

	// Counting run: measure the schedule length including Close.
	counting := faultfs.New(nil)
	cdb, err := openCompacting(t.TempDir(), counting, 1<<30)
	if err != nil {
		t.Fatalf("counting open: %v", err)
	}
	for i, op := range ops {
		if err := applyLifecycleOp(cdb, op); err != nil {
			t.Fatalf("counting op %d: %v", i, err)
		}
	}
	if !setEqual(stampedVertexSet(cdb.Tree()), seq[len(ops)]) {
		t.Fatal("counting run diverged from the healthy census sequence")
	}
	if err := cdb.Close(); err != nil {
		t.Fatalf("counting close: %v", err)
	}
	m := counting.Ops()
	if m < 20 {
		t.Fatalf("suspiciously short schedule: %d mutating ops", m)
	}
	t.Logf("compaction crash schedule: %d mutating filesystem operations", m)

	var postCompaction, inFlight int
	for n := 1; n <= m; n++ {
		dir := t.TempDir()
		fs := faultfs.New(nil)
		fs.SetCrashAt(n)

		acked := 0
		opened := false
		if db, err := openCompacting(dir, fs, 1<<30); err == nil {
			opened = true
			for _, op := range ops {
				if applyLifecycleOp(db, op) != nil {
					break // the FS is dead after the crash; later ops all fail
				}
				acked++
			}
			_ = db.Close()
		}
		if !fs.Crashed() {
			t.Fatalf("crash point %d/%d never fired", n, m)
		}

		recovered, err := openCompacting(dir, nil, 1<<30)
		if err != nil {
			t.Fatalf("crash point %d/%d: recovery failed: %v", n, m, err)
		}
		got := stampedVertexSet(recovered.Tree())
		if err := recovered.Close(); err != nil {
			t.Fatalf("crash point %d/%d: closing recovered module: %v", n, m, err)
		}
		onlyLog(t, fmt.Sprintf("crash point %d/%d", n, m), dir)

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
		if !setSubset(lo, got) {
			t.Fatalf("crash point %d/%d: acknowledged state lost (acked %d ops, recovered %d vertices, floor %d)",
				n, m, acked, len(got), len(lo))
		}
		if !setSubset(got, hi) {
			t.Fatalf("crash point %d/%d: hybrid state: recovery holds vertices neither pre- nor post-op census had (acked %d ops)",
				n, m, acked)
		}
		if opened && acked < len(ops) && setEqual(got, seq[acked+1]) && !setEqual(got, seq[acked]) {
			if ops[acked].compact {
				postCompaction++
			} else {
				inFlight++
			}
		}
	}
	t.Logf("crash sweep: %d points, %d landed post-compaction, %d replayed the in-flight insert", m, postCompaction, inFlight)
}

// TestCrashScheduleCompactEvery enumerates every crash point of the
// inserts that cross CompactEvery on a module with a log and aging on:
// the insert's journal append, then inside Insert the aged rebuild, the
// commit of the rebuilt census (temporary file, fsync, rename, directory
// fsync) and the swap. The module compacts every 4 accepted inserts, the
// schedule lifecycleOps makes explicit, so the healthy explicit run's
// census sequence names every state the trigger run may hold. With k
// inserts acknowledged before the crash, recovery must equal exactly one
// state the in-flight insert passes through: the census before it, the
// census with its vertex journaled and, for an insert that crosses the
// trigger, the rebuilt census. Anything else is an acknowledged loss or
// a hybrid.
func TestCrashScheduleCompactEvery(t *testing.T) {
	ops := lifecycleOps()
	seq := healthyCensuses(t, ops)
	// legal[k] lists the states recovery may land in with k inserts
	// acknowledged: after[k] is the state once insert k is acknowledged.
	var legal [][]map[string]bool
	var inserts []lifecycleOp
	for i, op := range ops {
		if op.compact {
			continue
		}
		states := []map[string]bool{seq[i], seq[i+1]}
		if i+1 < len(ops) && ops[i+1].compact {
			states = append(states, seq[i+2])
		}
		legal = append(legal, states)
		inserts = append(inserts, op)
	}
	last := legal[len(legal)-1]
	final := last[len(last)-1]

	run := func(dir string, fs *faultfs.FS) (acked int, opened bool) {
		db, err := openCompacting(dir, fs, 4)
		if err != nil {
			return 0, false
		}
		for _, op := range inserts {
			if applyLifecycleOp(db, op) != nil {
				break // the FS is dead after the crash; later ops all fail
			}
			acked++
		}
		_ = db.Close()
		return acked, true
	}

	counting := faultfs.New(nil)
	cdir := t.TempDir()
	if acked, _ := run(cdir, counting); acked != len(inserts) {
		t.Fatalf("counting run acknowledged %d of %d inserts", acked, len(inserts))
	}
	cdb, err := openCompacting(cdir, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !setEqual(stampedVertexSet(cdb.Tree()), final) {
		t.Fatal("the CompactEvery trigger diverged from the explicit Compact schedule")
	}
	if err := cdb.Close(); err != nil {
		t.Fatal(err)
	}
	m := counting.Ops()
	t.Logf("CompactEvery crash schedule: %d mutating filesystem operations", m)

	var journaledOnly, rebuilt int
	for n := 1; n <= m; n++ {
		dir := t.TempDir()
		fs := faultfs.New(nil)
		fs.SetCrashAt(n)
		acked, opened := run(dir, fs)
		if !fs.Crashed() {
			t.Fatalf("crash point %d/%d never fired", n, m)
		}
		recovered, err := openCompacting(dir, nil, 4)
		if err != nil {
			t.Fatalf("crash point %d/%d: recovery failed: %v", n, m, err)
		}
		got := stampedVertexSet(recovered.Tree())
		if err := recovered.Close(); err != nil {
			t.Fatalf("crash point %d/%d: closing recovered module: %v", n, m, err)
		}
		onlyLog(t, fmt.Sprintf("crash point %d/%d", n, m), dir)

		states := []map[string]bool{seq[0]}
		switch {
		case !opened:
		case acked == len(inserts):
			states = []map[string]bool{final}
		default:
			states = legal[acked]
		}
		match := -1
		for i, st := range states {
			if setEqual(got, st) {
				match = i
			}
		}
		if match < 0 {
			t.Fatalf("crash point %d/%d: recovered %d vertices, none of the %d states insert %d passes through (acked %d)",
				n, m, len(got), len(states), acked, acked)
		}
		if opened && acked < len(inserts) && len(states) == 3 {
			switch match {
			case 1:
				journaledOnly++
			case 2:
				rebuilt++
			}
		}
	}
	if journaledOnly == 0 || rebuilt == 0 {
		t.Fatalf("no crash landed inside a triggered compaction: %d recovered the journaled insert alone, %d the rebuilt census", journaledOnly, rebuilt)
	}
	t.Logf("crash sweep: %d points; inside triggered compactions %d recovered the journaled insert, %d the rebuilt census", m, journaledOnly, rebuilt)
}

// TestAgingDisabledParity pins the satellite property that a disabled
// horizon is a bitwise no-op: horizon 0 and horizon 2^64−1 modules fed
// the same inserts produce bitwise-identical predictions, and
// Compact on either reclaims nothing and leaves the stamped census
// bitwise unchanged.
func TestAgingDisabledParity(t *testing.T) {
	const d, p = 3, 2
	zero, err := New(d, p, Config{Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	inf, err := New(d, p, Config{Epsilon: 0, AgeHorizon: math.MaxUint64})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(51))
	var qs [][]float64
	for i := 0; i < 16; i++ {
		q := randomSimplexPoint(rng, d)
		oqp := randomOQP(rng, d, p)
		qs = append(qs, q)
		if _, err := zero.Insert(q, oqp); err != nil {
			t.Fatalf("insert %d (horizon 0): %v", i, err)
		}
		if _, err := inf.Insert(q, oqp); err != nil {
			t.Fatalf("insert %d (horizon max): %v", i, err)
		}
	}
	for i, q := range qs {
		a, errA := zero.Predict(q)
		b, errB := inf.Predict(q)
		if errA != nil || errB != nil {
			t.Fatalf("predict %d: %v / %v", i, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("predict %d: horizon 0 and horizon max disagree bitwise: %+v vs %+v", i, a, b)
		}
	}

	for name, b := range map[string]*Bypass{"horizon-0": zero, "horizon-max": inf} {
		before := stampedVertexSet(b.Tree())
		if err := b.Compact(); err != nil {
			t.Fatalf("%s: Compact: %v", name, err)
		}
		if b.Reclaimed() != 0 {
			t.Fatalf("%s: disabled horizon reclaimed %d vertices", name, b.Reclaimed())
		}
		if !setEqual(before, stampedVertexSet(b.Tree())) {
			t.Fatalf("%s: Compact changed the stamped census with aging disabled", name)
		}
	}
	if !setEqual(vertexSet(zero.Tree()), vertexSet(inf.Tree())) {
		t.Fatal("horizon 0 and horizon max trees diverged geometrically")
	}
}

// TestTimestampedReplayIdempotent pins the versioned-WAL satellite:
// timestamped records replay to the same stamped census however many
// times recovery runs, so the aging horizon sees the same ages after
// one replay or five.
func TestTimestampedReplayIdempotent(t *testing.T) {
	const d, p = 3, 2
	dir := t.TempDir()
	db, err := openCompacting(dir, nil, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 6; i++ {
		if _, err := db.Insert(randomSimplexPoint(rng, d), randomOQP(rng, d, p)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	want := stampedVertexSet(db.Tree())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 3; round++ {
		r, err := openCompacting(dir, nil, 1<<30)
		if err != nil {
			t.Fatalf("reopen %d: %v", round, err)
		}
		got := stampedVertexSet(r.Tree())
		if err := r.Close(); err != nil {
			t.Fatalf("close %d: %v", round, err)
		}
		if !setEqual(want, got) {
			t.Fatalf("reopen %d: replay is not idempotent: %d vertices recovered, %d expected (stamped, bitwise)",
				round, len(got), len(want))
		}
	}
}

// TestCompactAgedDurableRecovery pins the swap protocol end to end, for
// an explicit Compact and for the CompactEvery trigger: an aged
// compaction that reclaims vertices commits a fresh log with an empty
// journal, and a clean reopen reproduces the post-compaction stamped
// census bitwise — reclaimed vertices stay dead (the old journal went
// with the file the rename replaced).
func TestCompactAgedDurableRecovery(t *testing.T) {
	const d, p = 3, 2
	for _, tc := range []struct {
		name         string
		compactEvery int
	}{{"Compact", 1 << 30}, {"CompactEvery", 10}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := openCompacting(dir, nil, tc.compactEvery)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(59))
			for i := 0; i < 10; i++ {
				if _, err := db.Insert(randomSimplexPoint(rng, d), randomOQP(rng, d, p)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if tc.compactEvery > 10 {
				if err := db.Compact(); err != nil {
					t.Fatalf("Compact: %v", err)
				}
			}
			if db.Compactions() != 1 || db.Reclaimed() == 0 {
				t.Fatalf("%d compactions reclaimed %d vertices, want one reclaiming compaction", db.Compactions(), db.Reclaimed())
			}
			if got := db.Journaled(); got != 0 {
				t.Fatalf("journal after the compaction: %d records, want 0", got)
			}
			want := stampedVertexSet(db.Tree())
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := openCompacting(dir, nil, tc.compactEvery)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer r.Close()
			if got := r.Journaled(); got != 0 {
				t.Fatalf("recovered journal: %d records, want 0", got)
			}
			got := stampedVertexSet(r.Tree())
			if !setEqual(want, got) {
				if len(got) > len(want) {
					t.Fatalf("reclaimed vertices resurrected on reopen: %d recovered, %d expected", len(got), len(want))
				}
				t.Fatalf("post-compaction census not recovered bitwise: %d recovered, %d expected", len(got), len(want))
			}
		})
	}
}

// hasVertexAt reports whether the tree holds a vertex bitwise equal to q.
func hasVertexAt(tree *simplextree.Tree, q []float64) bool {
	c := tree.Census()
	for id := range c.Stamps {
		point, _, _ := c.At(id)
		if len(point) != len(q) {
			continue
		}
		same := true
		for i := range q {
			if math.Float64bits(point[i]) != math.Float64bits(q[i]) {
				same = false
			}
		}
		if same {
			return true
		}
	}
	return false
}

// TestDurableQuotaCompactRetry pins the serving policy: an insert that
// trips the vertex quota triggers one aged compaction, and when that
// reclaims space the insert is retried and acknowledged instead of
// surfacing ErrQuotaExceeded. Geometry: d=3 gives 4 corners, quota 8
// admits 4 inserts; the 5th trips the quota at clock 4, horizon 2 puts
// the cutoff at 2, and the stamp-1 vertex is reclaimed to make room.
func TestDurableQuotaCompactRetry(t *testing.T) {
	const d, p = 3, 2
	db, err := OpenDurable(t.TempDir(), d, p,
		Config{Epsilon: 0, MaxVertices: 8, AgeHorizon: 2},
		DurableOptions{CompactEvery: 1 << 30, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(61))
	pts := make([][]float64, 5)
	for i := range pts {
		pts[i] = randomSimplexPoint(rng, d)
		changed, err := db.Insert(pts[i], randomOQP(rng, d, p))
		if i < 4 {
			if err != nil || !changed {
				t.Fatalf("insert %d under quota: changed=%v err=%v", i, changed, err)
			}
			continue
		}
		// The 5th insert must compact-then-retry, not fail.
		if err != nil {
			t.Fatalf("quota-pressure insert surfaced an error despite reclaimable vertices: %v", err)
		}
		if !changed {
			t.Fatal("quota-pressure insert not acknowledged after compaction")
		}
	}
	if got := db.Compactions(); got != 1 {
		t.Fatalf("compactions after quota retry: got %d, want 1", got)
	}
	if got := db.Reclaimed(); got == 0 {
		t.Fatal("quota-pressure compaction reclaimed nothing")
	}
	if !hasVertexAt(db.Tree(), pts[4]) {
		t.Fatal("retried insert missing from the tree")
	}
	if hasVertexAt(db.Tree(), pts[0]) {
		t.Fatal("oldest vertex survived the quota-pressure compaction")
	}
}
