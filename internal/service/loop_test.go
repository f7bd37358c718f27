package service

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/vec"
)

// loopFixture is one collection and engine shared by services that each
// get a fresh, empty (so default-predicting) module.
type loopFixture struct {
	ds  *dataset.Dataset
	eng *engine.Engine
}

func newLoopFixture(t *testing.T) loopFixture {
	t.Helper()
	ds, err := dataset.Build(imagegen.IMSILike(7, 0.03), histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(ds, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return loopFixture{ds: ds, eng: eng}
}

func (f loopFixture) service(t *testing.T, opts Options) (*Service, *core.Bypass) {
	t.Helper()
	codec, err := core.NewHistogramCodec(f.ds.Dim)
	if err != nil {
		t.Fatal(err)
	}
	byp, err := core.New(codec.D(), codec.P(), core.Config{Epsilon: 0.05, DefaultWeights: codec.DefaultWeights()})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(f.eng, byp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return svc, byp
}

// TestServedSessionIsTheFiguresLoop is the one-loop parity check: a
// session served through Open/Feedback/Close with oracle scores on a
// fresh module and the figures' oracle driver from (feature, uniform)
// consume the same rounds, end on bitwise-equal parameters and make the
// same insert decision.
func TestServedSessionIsTheFiguresLoop(t *testing.T) {
	f := newLoopFixture(t)
	items, err := f.ds.SampleQueries(rand.New(rand.NewSource(3)), 24)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const k = 10
	moved := 0
	for _, idx := range items {
		item := f.ds.Items[idx]
		want, err := experiments.OracleLoop(f.eng, item.Category, item.Feature, f.eng.UniformWeights(), k)
		if err != nil {
			t.Fatal(err)
		}

		svc, _ := f.service(t, Options{})
		st, err := svc.Open(ctx, item.Feature, k)
		if err != nil {
			t.Fatal(err)
		}
		for !st.Converged {
			if st, err = svc.Feedback(ctx, st.ID, oracleScores(f.ds, item.Category, st.Results)); err != nil {
				t.Fatal(err)
			}
		}
		q, w := svc.sessions[st.ID].loop.Params()
		res, err := svc.Close(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}

		wq, ww := want.Params()
		if res.Iterations != want.Rounds() {
			t.Errorf("item %d: served session took %d rounds, the figures' loop %d", idx, res.Iterations, want.Rounds())
		}
		if !bitsEqual(q, wq) || !bitsEqual(w, ww) {
			t.Errorf("item %d: final parameters differ from the figures' loop", idx)
		}
		if inserted := svc.Stats().Inserts == 1; inserted != want.Moved() {
			t.Errorf("item %d: service called Insert = %v, the figures' rule says %v", idx, inserted, want.Moved())
		}
		if want.Moved() {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no session moved its parameters; the insert rule was never exercised")
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestHostileScores drives served sessions with scripted score sequences
// a careless or hostile client might send. Every session ends within the
// iteration budget; every malformed round is refused with
// ErrInvalidArgument and leaves the session's state untouched; every
// outcome the tree stores is finite; and Stats.Feedbacks counts exactly
// the rounds the sessions consumed.
func TestHostileScores(t *testing.T) {
	f := newLoopFixture(t)
	const budget = 12
	svc, byp := f.service(t, Options{IterationBudget: budget})
	ctx := context.Background()

	fill := func(n int, x float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = x
		}
		return s
	}
	spoil := func(x float64) func([]float64) []float64 {
		return func(s []float64) []float64 { s[len(s)/2] = x; return s }
	}
	cases := []struct {
		name string
		// valid scores the session's n results in accepted round r.
		valid func(r, n int, rng *rand.Rand) []float64
		// bad, when set, turns the oracle's scores into a malformed round
		// that is sent before every accepted round.
		bad func([]float64) []float64
	}{
		{name: "all-1", valid: func(_, n int, _ *rand.Rand) []float64 { return fill(n, 1) }},
		{name: "all-1/all-0", valid: func(r, n int, _ *rand.Rand) []float64 { return fill(n, float64(1-r%2)) }},
		{name: "alternating-halves", valid: func(r, n int, _ *rand.Rand) []float64 {
			s := make([]float64, n)
			for i := range s {
				if (i < n/2) == (r%2 == 0) {
					s[i] = 1
				}
			}
			return s
		}},
		{name: "random", valid: func(_, n int, rng *rand.Rand) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = rng.Float64()
			}
			return s
		}},
		{name: "nan", bad: spoil(math.NaN())},
		{name: "+inf", bad: spoil(math.Inf(1))},
		{name: "negative", bad: spoil(-1)},
		{name: "overflowing-sum", bad: func(s []float64) []float64 { return fill(len(s), math.MaxFloat64) }},
	}
	rounds, midSession := 0, 0
	for ci, c := range cases {
		rng := rand.New(rand.NewSource(int64(ci) + 1))
		for _, idx := range []int{ci, 40 + ci, 80 + ci} {
			item := f.ds.Items[idx]
			st, err := svc.Open(ctx, item.Feature, 8)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; !st.Converged; r++ {
				if r >= budget {
					t.Fatalf("%s item %d: session still open after %d rounds", c.name, idx, r)
				}
				scores := oracleScores(f.ds, item.Category, st.Results)
				if c.valid != nil {
					scores = c.valid(r, len(st.Results), rng)
				} else {
					before, err := svc.Query(ctx, st.ID)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := svc.Feedback(ctx, st.ID, c.bad(vec.Clone(scores))); !errors.Is(err, ErrInvalidArgument) {
						t.Fatalf("%s item %d round %d: err %v, want ErrInvalidArgument", c.name, idx, r, err)
					}
					after, err := svc.Query(ctx, st.ID)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(after, before) {
						t.Fatalf("%s item %d round %d: a rejected round changed the session:\n%+v\n%+v", c.name, idx, r, before, after)
					}
					if r > 0 {
						midSession++
					}
				}
				if st, err = svc.Feedback(ctx, st.ID, scores); err != nil {
					t.Fatalf("%s item %d round %d: %v", c.name, idx, r, err)
				}
			}
			if st.Iterations > budget || st.BudgetLeft != budget-st.Iterations {
				t.Fatalf("%s item %d: %d rounds, %d budget left", c.name, idx, st.Iterations, st.BudgetLeft)
			}
			res, err := svc.Close(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			rounds += res.Iterations
		}
	}
	if midSession == 0 {
		t.Error("no malformed round reached a session after its first accepted round")
	}
	if got := svc.Stats().Feedbacks; got != int64(rounds) {
		t.Errorf("Stats.Feedbacks = %d, sessions consumed %d rounds", got, rounds)
	}
	snap := byp.Tree().Snapshot()
	if !vec.IsFinite(snap.Values) {
		t.Fatalf("stored OQPs %v are not all finite", snap.Values)
	}
	if snap.Points == 0 {
		t.Error("no hostile session stored an outcome")
	}
}

// TestFeedbacksCountConsumedRounds pins the Feedbacks counter to the
// judgements the sessions' loops consumed: rounds refused for their
// scores or aborted by their context do not count, whether the session
// ends by Close or by Drain.
func TestFeedbacksCountConsumedRounds(t *testing.T) {
	f := newLoopFixture(t)
	svc, _ := f.service(t, Options{})
	ctx := context.Background()
	canceled, cancel := context.WithCancel(ctx)
	cancel()

	rounds := 0
	var open []uint64
	for i := 0; i < 8; i++ {
		item := f.ds.Items[i*13]
		st, err := svc.Open(ctx, item.Feature, 8)
		if err != nil {
			t.Fatal(err)
		}
		for !st.Converged {
			scores := oracleScores(f.ds, item.Category, st.Results)
			nan := vec.Clone(scores)
			nan[0] = math.NaN()
			if _, err := svc.Feedback(ctx, st.ID, nan); !errors.Is(err, ErrInvalidArgument) {
				t.Fatalf("NaN round: %v", err)
			}
			if _, err := svc.Feedback(canceled, st.ID, scores); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled round: %v", err)
			}
			if st, err = svc.Feedback(ctx, st.ID, scores); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 1 {
			// Left open for Drain; Query reads its rounds without advancing it.
			open = append(open, st.ID)
			rounds += st.Iterations
			continue
		}
		res, err := svc.Close(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		rounds += res.Iterations
	}
	if closed, _, err := svc.Drain(ctx); err != nil || closed != len(open) {
		t.Fatalf("Drain closed %d of %d sessions: %v", closed, len(open), err)
	}
	if got := svc.Stats().Feedbacks; got != int64(rounds) {
		t.Errorf("Stats.Feedbacks = %d, sessions consumed %d rounds", got, rounds)
	}
}
