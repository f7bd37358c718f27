package service

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/knn"
)

// newTestService builds a small IMSI-like collection and a service over a
// fresh in-memory Bypass — the identical wiring cmd/fbserve performs.
func newTestService(t testing.TB, opts Options) (*Service, *dataset.Dataset) {
	t.Helper()
	return newAgingTestService(t, opts, 0, 0)
}

// newAgingTestService is newTestService over a module that ages
// vertices out past horizon and compacts every compactEvery accepted
// inserts.
func newAgingTestService(t testing.TB, opts Options, horizon uint64, compactEvery int) (*Service, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Build(imagegen.IMSILike(7, 0.03), histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(ds, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	codec, err := core.NewHistogramCodec(ds.Dim)
	if err != nil {
		t.Fatal(err)
	}
	byp, err := core.OpenDurable("", codec.D(), codec.P(), core.Config{
		Epsilon:        0.05,
		DefaultWeights: codec.DefaultWeights(),
		AgeHorizon:     horizon,
	}, core.DurableOptions{CompactEvery: compactEvery})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(eng, byp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return svc, ds
}

// oracleScores marks each result good iff it belongs to the query's
// category — the automatic user of §5.
func oracleScores(ds *dataset.Dataset, category string, results []knn.Result) []float64 {
	scores := make([]float64, len(results))
	for i, r := range results {
		if ds.IsGood(r.Index, category) {
			scores[i] = 1
		}
	}
	return scores
}

// runSession drives one full interactive session with the oracle and
// returns the close result.
func runSession(t *testing.T, svc *Service, ds *dataset.Dataset, itemIdx, k int) CloseResult {
	t.Helper()
	item := ds.Items[itemIdx]
	st, err := svc.Open(context.Background(), item.Feature, k)
	if err != nil {
		t.Fatal(err)
	}
	for !st.Converged {
		st, err = svc.Feedback(context.Background(), st.ID, oracleScores(ds, item.Category, st.Results))
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := svc.Close(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewValidation(t *testing.T) {
	svc, ds := newTestService(t, Options{})
	if _, err := New(nil, nil, Options{}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(svc.eng, nil, Options{}); err == nil {
		t.Error("nil bypass accepted")
	}
	// A bypass with the wrong geometry must be rejected.
	wrong, err := core.New(3, 3, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(svc.eng, wrong, Options{}); err == nil {
		t.Error("mismatched bypass dimensions accepted")
	}
	if _, err := New(svc.eng, wrong, Options{MaxSessions: -1}); err == nil {
		t.Error("negative MaxSessions accepted")
	}
	_ = ds
}

func TestSessionLifecycle(t *testing.T) {
	svc, ds := newTestService(t, Options{DefaultK: 8})
	item := ds.Items[0]
	st, err := svc.Open(context.Background(), item.Feature, 0) // k<=0 → DefaultK
	if err != nil {
		t.Fatal(err)
	}
	if st.K != 8 || len(st.Results) != 8 {
		t.Fatalf("k = %d, %d results, want 8", st.K, len(st.Results))
	}
	if st.Iterations != 0 || st.Converged {
		t.Fatalf("fresh session state: %+v", st)
	}
	// Query returns the same snapshot without advancing.
	qst, err := svc.Query(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if qst.Iterations != 0 || len(qst.Results) != len(st.Results) {
		t.Fatalf("Query state diverged: %+v", qst)
	}
	// Drive to convergence with the oracle.
	rounds := 0
	for !st.Converged {
		st, err = svc.Feedback(context.Background(), st.ID, oracleScores(ds, item.Category, st.Results))
		if err != nil {
			t.Fatal(err)
		}
		rounds++
		if rounds > 100 {
			t.Fatal("session never converged")
		}
	}
	res, err := svc.Close(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != st.Iterations {
		t.Errorf("close iterations %d vs state %d", res.Iterations, st.Iterations)
	}
	if st.Iterations > 0 && !res.Inserted {
		t.Error("a session that refined its parameters should insert into the bypass")
	}
	// The session is gone: every lifecycle method must say so, Is-ably.
	if _, err := svc.Query(context.Background(), st.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("Query after close: %v", err)
	}
	if _, err := svc.Feedback(context.Background(), st.ID, nil); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("Feedback after close: %v", err)
	}
	if _, err := svc.Close(context.Background(), st.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("double Close: %v", err)
	}
	stats := svc.Stats()
	if stats.Opened != 1 || stats.Closed != 1 || stats.ActiveSessions != 0 {
		t.Errorf("stats after one session: %+v", stats)
	}
}

func TestOpenValidation(t *testing.T) {
	svc, ds := newTestService(t, Options{})
	if _, err := svc.Open(context.Background(), []float64{0.5, 0.5}, 5); err == nil {
		t.Error("wrong-dimension query accepted")
	}
	// A "histogram" far outside the standard simplex must surface the
	// domain sentinel through the service.
	bad := make([]float64, ds.Dim)
	bad[0] = 2.0
	if _, err := svc.Open(context.Background(), bad, 5); !errors.Is(err, core.ErrOutOfDomain) {
		t.Errorf("out-of-domain query: error %v is not core.ErrOutOfDomain", err)
	}
	if svc.Stats().ActiveSessions != 0 {
		t.Error("failed Open leaked a session slot")
	}
	// An absurd k is clamped to the collection size instead of driving a
	// k-sized allocation in every scan worker.
	st, err := svc.Open(context.Background(), ds.Items[0].Feature, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if st.K != ds.Len() || len(st.Results) != ds.Len() {
		t.Errorf("k clamp: K=%d results=%d, want collection size %d", st.K, len(st.Results), ds.Len())
	}
	if _, err := svc.Close(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionControl(t *testing.T) {
	svc, ds := newTestService(t, Options{MaxSessions: 2})
	st1, err := svc.Open(context.Background(), ds.Items[0].Feature, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Open(context.Background(), ds.Items[1].Feature, 5); err != nil {
		t.Fatal(err)
	}
	_, err = svc.Open(context.Background(), ds.Items[2].Feature, 5)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third session: error %v is not ErrOverloaded", err)
	}
	if svc.Stats().Rejected != 1 {
		t.Errorf("rejected counter = %d", svc.Stats().Rejected)
	}
	// Closing a session frees the slot.
	if _, err := svc.Close(context.Background(), st1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Open(context.Background(), ds.Items[2].Feature, 5); err != nil {
		t.Errorf("open after close: %v", err)
	}
}

func TestIterationBudget(t *testing.T) {
	svc, ds := newTestService(t, Options{IterationBudget: 1})
	item := ds.Items[0]
	st, err := svc.Open(context.Background(), item.Feature, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.BudgetLeft != 1 {
		t.Fatalf("BudgetLeft = %d, want 1", st.BudgetLeft)
	}
	st, err = svc.Feedback(context.Background(), st.ID, oracleScores(ds, item.Category, st.Results))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.BudgetLeft != 0 {
		t.Fatalf("after budgeted round: %+v", st)
	}
	// Further feedback is a no-op, not an error.
	again, err := svc.Feedback(context.Background(), st.ID, oracleScores(ds, item.Category, st.Results))
	if err != nil {
		t.Fatal(err)
	}
	if again.Iterations != st.Iterations {
		t.Error("feedback past the budget advanced the session")
	}
}

// bitwiseEqualOQP compares two OQPs at the float64-bit level — the parity
// bar the prediction cache must clear.
func bitwiseEqualOQP(a, b core.OQP) bool {
	if len(a.Delta) != len(b.Delta) || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i := range a.Delta {
		if math.Float64bits(a.Delta[i]) != math.Float64bits(b.Delta[i]) {
			return false
		}
	}
	for i := range a.Weights {
		if math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
			return false
		}
	}
	return true
}

func TestCachedPredictionParity(t *testing.T) {
	svc, ds := newTestService(t, Options{})
	// Train the tree through real sessions so predictions are non-trivial.
	for i := 0; i < 8; i++ {
		runSession(t, svc, ds, i, 10)
	}
	for i := 0; i < 20; i++ {
		qp, err := svc.codec.QueryPoint(ds.Items[i*3].Feature)
		if err != nil {
			t.Fatal(err)
		}
		miss, hit1, err := svc.predict(qp)
		if err != nil {
			t.Fatal(err)
		}
		cached, hit2, err := svc.predict(qp)
		if err != nil {
			t.Fatal(err)
		}
		if hit1 && i == 0 {
			t.Error("first prediction cannot be a cache hit")
		}
		if !hit2 {
			t.Fatalf("query %d: repeat prediction missed the cache", i)
		}
		fresh, err := svc.byp.Predict(qp)
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqualOQP(cached, fresh) || !bitwiseEqualOQP(miss, fresh) {
			t.Fatalf("query %d: cached prediction is not bitwise identical to uncached Predict", i)
		}
	}
	if svc.Stats().CacheHits == 0 {
		t.Error("cache hit counter never moved")
	}
}

func TestCacheInvalidationOnInsert(t *testing.T) {
	svc, ds := newTestService(t, Options{})
	qp, err := svc.codec.QueryPoint(ds.Items[40].Feature)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.predict(qp); err != nil { // fill
		t.Fatal(err)
	}
	if _, hit, _ := svc.predict(qp); !hit {
		t.Fatal("expected a warm cache before the insert")
	}
	// A session whose close inserts into the tree must drop the cache.
	res := runSession(t, svc, ds, 40, 10)
	if !res.Inserted {
		t.Skip("session outcome was within ε; cannot exercise invalidation")
	}
	if _, hit, _ := svc.predict(qp); hit {
		t.Fatal("cache served a prediction from before the insert")
	}
	cached, hit, err := svc.predict(qp)
	if err != nil || !hit {
		t.Fatalf("refill failed: hit=%v err=%v", hit, err)
	}
	fresh, err := svc.byp.Predict(qp)
	if err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqualOQP(cached, fresh) {
		t.Fatal("post-insert cached prediction diverges from the tree")
	}
}

func TestCacheEviction(t *testing.T) {
	svc, ds := newTestService(t, Options{CacheSize: 2})
	for i := 0; i < 5; i++ {
		qp, err := svc.codec.QueryPoint(ds.Items[i].Feature)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := svc.predict(qp); err != nil {
			t.Fatal(err)
		}
	}
	if n := svc.Stats().CacheEntries; n > 2 {
		t.Errorf("cache holds %d entries, cap 2", n)
	}
	// Disabled cache: no entries, no hits, predictions still work.
	off, _ := newTestService(t, Options{CacheSize: -1})
	qp, _ := off.codec.QueryPoint(ds.Items[0].Feature)
	if _, hit, err := off.predict(qp); err != nil || hit {
		t.Errorf("disabled cache: hit=%v err=%v", hit, err)
	}
	if _, hit, err := off.predict(qp); err != nil || hit {
		t.Errorf("disabled cache repeat: hit=%v err=%v", hit, err)
	}
}

func TestDrain(t *testing.T) {
	svc, ds := newTestService(t, Options{})
	var ids []uint64
	for i := 0; i < 4; i++ {
		item := ds.Items[i]
		st, err := svc.Open(context.Background(), item.Feature, 8)
		if err != nil {
			t.Fatal(err)
		}
		// Give two of them feedback so Drain has outcomes to insert.
		if i%2 == 0 {
			if _, err := svc.Feedback(context.Background(), st.ID, oracleScores(ds, item.Category, st.Results)); err != nil {
				t.Fatal(err)
			}
		}
		ids = append(ids, st.ID)
	}
	closed, _, err := svc.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if closed != 4 {
		t.Errorf("drained %d sessions, want 4", closed)
	}
	if svc.Stats().ActiveSessions != 0 {
		t.Error("sessions survived the drain")
	}
	for _, id := range ids {
		if _, err := svc.Query(context.Background(), id); !errors.Is(err, ErrSessionNotFound) {
			t.Errorf("session %d survived the drain: %v", id, err)
		}
	}
}
