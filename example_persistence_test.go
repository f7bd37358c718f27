package feedbackbypass_test

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"

	feedbackbypass "repro"
)

// The reason FeedbackBypass exists is that feedback outcomes are
// "forgotten across multiple query sessions" (§1 of the paper). This
// example trains a module in one session, closes it, reopens it in a
// fresh session, checks that the predictions survived, and keeps
// learning on top. It then repeats the exercise without the Close: a
// simulated crash, and recovery by rebuilding the log's census and
// replaying its journal. The module's one file is its log: a census of
// the tree's vertices followed by a journal of the inserts accepted
// since, which a compaction every CompactEvery accepted inserts folds
// into a fresh census.
func Example_persistence() {
	dir, err := os.MkdirTemp("", "fbwl")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	const bins = 8
	rng := rand.New(rand.NewSource(7))
	codec := feedbackbypass.HistogramCodec{Bins: bins}
	cfg := feedbackbypass.Config{Epsilon: 0.01, DefaultWeights: codec.DefaultWeights()}
	opts := feedbackbypass.DurableOptions{CompactEvery: 10}
	open := func() *feedbackbypass.Bypass {
		b, err := feedbackbypass.OpenDurable(dir, codec.D(), codec.P(), cfg, opts)
		if err != nil {
			log.Fatal(err)
		}
		return b
	}
	// learn stores one simulated loop outcome for a random query and
	// returns its query point: the weight of the query's dominant bin
	// quadrupled, the query point nudged toward the next bin.
	learn := func(b *feedbackbypass.Bypass) []float64 {
		q := randomHistogram(rng, bins)
		qp, err := codec.QueryPoint(q)
		if err != nil {
			log.Fatal(err)
		}
		dom := 0
		for j := range q {
			if q[j] > q[dom] {
				dom = j
			}
		}
		next := (dom + 1) % bins
		shift := math.Min(0.05, q[next]/2)
		qBest := append([]float64(nil), q...)
		qBest[dom] += shift
		qBest[next] -= shift
		wBest := filled(bins, 1)
		wBest[dom] = 4
		oqp, err := codec.EncodeOQP(q, qBest, wBest)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := b.Insert(qp, oqp); err != nil {
			log.Fatal(err)
		}
		return qp
	}

	// ---- Session 1: learn from 25 simulated feedback loops. ----
	bypass := open()
	trained := learn(bypass)
	for i := 1; i < 25; i++ {
		learn(bypass)
	}
	before, err := bypass.Predict(trained)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 1: trained on 25 loops, tree has %d points, %d inserts journaled since the last compaction\n",
		bypass.Stats().Points, bypass.Journaled())
	if err := bypass.Close(); err != nil {
		log.Fatal(err)
	}

	// ---- Session 2: a fresh process reopens the module. ----
	restored := open()
	after, err := restored.Predict(trained)
	if err != nil {
		log.Fatal(err)
	}
	// Predictions for the trained queries are identical: no feedback loop
	// is needed for them ever again.
	fmt.Printf("session 2: reopened %d points, prediction drift %g\n",
		restored.Stats().Points, drift(before.Delta, after.Delta)+drift(before.Weights, after.Weights))
	// And the restored module keeps learning.
	for i := 0; i < 12; i++ {
		trained = learn(restored)
	}
	lastPred, err := restored.Predict(trained)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 2: learned 12 more loops, %d points, %d inserts journaled\n",
		restored.Stats().Points, restored.Journaled())
	// Crash: the process dies here — no Close. The acknowledged inserts
	// are in the journal.

	// ---- Session 3: recovery = census rebuild + journal replay. ----
	recovered := open()
	defer recovered.Close()
	recPred, err := recovered.Predict(trained)
	if err != nil {
		log.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 3: recovered %d points from %d file (%s), prediction drift %g\n",
		recovered.Stats().Points, len(files), files[0].Name(),
		drift(lastPred.Delta, recPred.Delta)+drift(lastPred.Weights, recPred.Weights))
	// Output:
	// session 1: trained on 25 loops, tree has 25 points, 5 inserts journaled since the last compaction
	// session 2: reopened 25 points, prediction drift 0
	// session 2: learned 12 more loops, 37 points, 7 inserts journaled
	// session 3: recovered 37 points from 1 file (tree.fbwl), prediction drift 0
}

func filled(n int, x float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = x
	}
	return v
}

// drift is the largest absolute difference between a and b.
func drift(a, b []float64) float64 {
	var m float64
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}
