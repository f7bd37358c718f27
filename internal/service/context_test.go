package service

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faultfs"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/shardedbypass"
)

// TestContextCancellation: every lifecycle method returns the context's
// own error when the request is already dead, and a cancelled Open does
// not leak an admission slot.
func TestContextCancellation(t *testing.T) {
	svc, ds := newTestService(t, Options{})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := svc.Open(cancelled, ds.Items[0].Feature, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("Open on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := svc.Query(cancelled, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := svc.Feedback(cancelled, 1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Feedback on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := svc.Close(cancelled, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close on cancelled ctx = %v, want context.Canceled", err)
	}
	if st := svc.Stats(); st.ActiveSessions != 0 || st.Opened != 0 {
		t.Fatalf("cancelled requests leaked state: %+v", st)
	}

	// An already-expired deadline is reported as DeadlineExceeded so the
	// transport can map it to 503 rather than 499.
	expired, cancel2 := context.WithTimeout(context.Background(), -1)
	defer cancel2()
	if _, err := svc.Open(expired, ds.Items[0].Feature, 5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Open on expired ctx = %v, want context.DeadlineExceeded", err)
	}

	// A live context passes through untouched: the session opens, serves
	// and closes normally.
	res := runSession(t, svc, ds, 0, 5)
	if res.ID == 0 {
		t.Fatal("live-context session did not run")
	}
}

// newDurableService wires a service over a durable bypass rooted on the
// given fault-injection filesystem — the stack TestDegradedServing
// degrades mid-flight.
func newDurableService(t *testing.T, fs *faultfs.FS) (*Service, *dataset.Dataset) {
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
	byp, err := shardedbypass.Open(t.TempDir(), codec.D(), codec.P(), core.Config{
		Epsilon:        0.05,
		DefaultWeights: codec.DefaultWeights(),
	}, shardedbypass.Options{Durable: core.DurableOptions{FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { byp.Close() })
	svc, err := New(eng, byp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return svc, ds
}

// TestDegradedServing: when the store under the service flips read-only,
// Close reports the typed sentinel, the degraded rejection is counted,
// Stats carries the root cause, and new sessions keep serving
// predictions.
func TestDegradedServing(t *testing.T) {
	fs := faultfs.New(nil)
	svc, ds := newDurableService(t, fs)

	// The journal disk goes bad before any session completes.
	fs.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: core.JournalFile, Nth: 0, Kind: faultfs.Fail})

	// Find a session whose outcome the service actually tries to insert.
	var sawDegraded bool
	for i := 0; i < 32 && !sawDegraded; i++ {
		item := ds.Items[i]
		st, err := svc.Open(context.Background(), item.Feature, 10)
		if err != nil {
			t.Fatal(err)
		}
		for !st.Converged {
			if st, err = svc.Feedback(context.Background(), st.ID, oracleScores(ds, item.Category, st.Results)); err != nil {
				t.Fatal(err)
			}
		}
		_, err = svc.Close(context.Background(), st.ID)
		switch {
		case err == nil:
			// ε-skipped or zero-iteration session: nothing reached the disk.
		case errors.Is(err, core.ErrDegraded):
			sawDegraded = true
		default:
			t.Fatalf("close %d: %v", i, err)
		}
	}
	if !sawDegraded {
		t.Fatal("no session outcome reached the failing journal")
	}

	st := svc.Stats()
	if st.DegradedRejects == 0 {
		t.Fatal("degraded rejection not counted")
	}
	if st.Degraded == "" {
		t.Fatal("Stats does not carry the degraded cause")
	}
	if !errors.Is(svc.Degraded(), core.ErrDegraded) {
		t.Fatalf("Degraded() = %v, want ErrDegraded", svc.Degraded())
	}
	// The read path is unharmed: a fresh session opens and serves.
	if _, err := svc.Open(context.Background(), ds.Items[0].Feature, 5); err != nil {
		t.Fatalf("degraded store broke the read path: %v", err)
	}
}

// TestQuotaRejectionCounted: a quota-full store rejects the session's
// insert with the typed sentinel and the service counts it, while the
// session itself closes cleanly.
func TestQuotaRejectionCounted(t *testing.T) {
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
	// Quota exactly at the corner count: every split is refused.
	byp, err := core.New(codec.D(), codec.P(), core.Config{
		Epsilon:        0.05,
		DefaultWeights: codec.DefaultWeights(),
		MaxVertices:    codec.D() + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(eng, byp, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var sawQuota bool
	for i := 0; i < 32 && !sawQuota; i++ {
		item := ds.Items[i]
		st, err := svc.Open(context.Background(), item.Feature, 10)
		if err != nil {
			t.Fatal(err)
		}
		for !st.Converged {
			if st, err = svc.Feedback(context.Background(), st.ID, oracleScores(ds, item.Category, st.Results)); err != nil {
				t.Fatal(err)
			}
		}
		_, err = svc.Close(context.Background(), st.ID)
		switch {
		case err == nil:
		case errors.Is(err, core.ErrQuotaExceeded):
			sawQuota = true
		default:
			t.Fatalf("close %d: %v", i, err)
		}
	}
	if !sawQuota {
		t.Fatal("no session outcome hit the quota")
	}
	st := svc.Stats()
	if st.QuotaRejects == 0 {
		t.Fatal("quota rejection not counted")
	}
	if st.Degraded != "" {
		t.Fatal("quota exhaustion must not report degraded")
	}
	// Sessions keep opening and predicting at full quota.
	if _, err := svc.Open(context.Background(), ds.Items[0].Feature, 5); err != nil {
		t.Fatalf("quota-full store broke the read path: %v", err)
	}
}
