package engine

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/knn"
	"repro/internal/store"
)

// countingSearcher wraps the exact scan behind Options.Searcher and
// counts the searches it answers: the shape of the HTTP benchmark's
// traced searcher.
type countingSearcher struct {
	*knn.Scan
	searches int
}

func (s *countingSearcher) Search(q []float64, k int, m distance.Metric) ([]knn.Result, error) {
	s.searches++
	return s.Scan.Search(q, k, m)
}

// TestInjectedSearcher pins the Options.Searcher seam: every round of an
// oracle loop through an injected searcher — its results and its refined
// parameters — is bit for bit the default exact scan's, every retrieval
// goes through the injected searcher, and a searcher covering another
// number of rows is refused.
func TestInjectedSearcher(t *testing.T) {
	ds, err := dataset.Build(imagegen.IMSILike(3, 0.05), histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scan, err := knn.NewScanBackend(ds.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingSearcher{Scan: scan}
	injected, err := New(ds, Options{Searcher: counted})
	if err != nil {
		t.Fatal(err)
	}

	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	want, rounds := 0, 0
	for i := 0; i < 8; i++ {
		item := ds.Items[i*37]
		a, err := exact.Start(item.Feature, exact.UniformWeights(), 10, DefaultMaxIterations)
		if err != nil {
			t.Fatal(err)
		}
		b, err := injected.Start(item.Feature, injected.UniformWeights(), 10, DefaultMaxIterations)
		if err != nil {
			t.Fatal(err)
		}
		want++
		for {
			if !reflect.DeepEqual(a.Results(), b.Results()) {
				t.Fatalf("query %d round %d: injected results %v, exact %v", i, a.Rounds(), b.Results(), a.Results())
			}
			qa, wa := a.Params()
			qb, wb := b.Params()
			if !slices.EqualFunc(qa, qb, same) || !slices.EqualFunc(wa, wb, same) {
				t.Fatalf("query %d round %d: refined parameters differ", i, a.Rounds())
			}
			if a.Done() || b.Done() {
				break
			}
			scores := exact.Score(item.Category, a.Results())
			if slices.Max(scores) > 0 {
				want++ // a round with a good result re-retrieves
			}
			if err := a.Step(context.Background(), scores); err != nil {
				t.Fatal(err)
			}
			if err := b.Step(context.Background(), scores); err != nil {
				t.Fatal(err)
			}
		}
		if a.Done() != b.Done() || a.Rounds() != b.Rounds() {
			t.Fatalf("query %d: injected loop ended after %d rounds (done %v), exact after %d (done %v)",
				i, b.Rounds(), b.Done(), a.Rounds(), a.Done())
		}
		rounds += a.Rounds()
	}
	if counted.searches != want {
		t.Fatalf("injected searcher answered %d searches, want %d", counted.searches, want)
	}
	if rounds == 0 {
		t.Fatal("no loop took a feedback round: the comparison covered first lists only")
	}

	tiny, err := store.FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	small, err := knn.NewScanBackend(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ds, Options{Searcher: small}); err == nil {
		t.Fatal("searcher with mismatched length accepted")
	}
}
