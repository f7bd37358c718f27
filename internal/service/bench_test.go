package service

import (
	"context"
	"testing"
)

// benchSession drives one full Open → Feedback* → Close session, the
// serve-path unit.
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

// BenchmarkServe is the serve path, one session per op. A service
// always counts into its instruments (a private registry when
// Options.Obs is nil), so there is no uninstrumented twin to compare.
func BenchmarkServe(b *testing.B) {
	svc, ds := newTestService(b, Options{})
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
