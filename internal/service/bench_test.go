package service

import (
	"context"
	"testing"

	"repro/internal/obsv"
)

// benchSession drives one full Open → Feedback* → Close session — the
// serve-path unit the ≤5% instrumentation-overhead budget is measured
// over (see DESIGN.md, "Observability plane").
func benchSession(b *testing.B, svc *Service, feature []float64, scores []float64) {
	ctx := context.Background()
	st, err := svc.Open(ctx, feature, 10)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3 && !st.Converged; i++ {
		sc := scores[:len(st.Results)]
		st, err = svc.Feedback(ctx, st.ID, sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, err := svc.Close(ctx, st.ID); err != nil {
		b.Fatal(err)
	}
}

func runServeBench(b *testing.B, opts Options) {
	svc, ds := newTestService(b, opts)
	item := ds.Items[0]
	scores := make([]float64, 64)
	for i := range scores {
		if i%2 == 0 {
			scores[i] = 1
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSession(b, svc, item.Feature, scores)
	}
}

// BenchmarkServe is the uninstrumented serve path (Options.Obs nil: no
// registry, every instrument nil).
func BenchmarkServe(b *testing.B) {
	runServeBench(b, Options{})
}

// BenchmarkServeInstrumented is the same path with the full observability
// plane attached. Compare against BenchmarkServe to measure the
// instrumentation overhead; budget is ≤5%.
func BenchmarkServeInstrumented(b *testing.B) {
	runServeBench(b, Options{
		Obs:       obsv.NewRegistry(),
		ObsLabels: []obsv.Label{obsv.L("collection", "bench")},
	})
}
