package feedbackbypass_test

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	feedbackbypass "repro"
)

// The reason FeedbackBypass exists is that feedback outcomes are
// "forgotten across multiple query sessions" (§1 of the paper). This
// example trains a module in one session, saves it, loads it in a fresh
// session, checks that the predictions survived, and keeps learning on
// top. It then repeats the exercise with the durable module: inserts
// journaled to the module's log, a simulated crash (no Close), and
// recovery by rebuilding the log's census and replaying its journal.
// Both a saved file and the module's log are one format: a census of the
// tree's vertices followed by a journal of inserts.
func Example_persistence() {
	dir, err := os.MkdirTemp("", "fbwl")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "session.fbwl")

	const bins = 8
	rng := rand.New(rand.NewSource(7))

	// ---- Session 1: learn from 25 simulated feedback loops. ----
	bypass, codec, err := feedbackbypass.NewForHistograms(bins, feedbackbypass.Config{Epsilon: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	var trained []float64
	for i := 0; i < 25; i++ {
		q := randomHistogram(rng, bins)
		qp, err := codec.QueryPoint(q)
		if err != nil {
			log.Fatal(err)
		}
		// Simulated loop outcome: the weight of the query's dominant bin
		// quadrupled, the query point nudged toward it.
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
		if _, err := bypass.Insert(qp, oqp); err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			trained = qp
		}
	}
	fmt.Printf("session 1: trained on 25 loops, tree has %d points\n", bypass.Stats().Points)
	if err := feedbackbypass.SaveFile(path, bypass); err != nil {
		log.Fatal(err)
	}

	// ---- Session 2: a fresh process loads the tree. ----
	restored, err := feedbackbypass.LoadFile(path, codec.P())
	if err != nil {
		log.Fatal(err)
	}
	before, err := bypass.Predict(trained)
	if err != nil {
		log.Fatal(err)
	}
	after, err := restored.Predict(trained)
	if err != nil {
		log.Fatal(err)
	}
	// Predictions for the trained queries are identical: no feedback loop
	// is needed for them ever again.
	fmt.Printf("session 2: loaded %d points, prediction drift %g\n",
		restored.Stats().Points, drift(before.Delta, after.Delta)+drift(before.Weights, after.Weights))
	// And the restored module keeps learning.
	newQ := randomHistogram(rng, bins)
	newQP, err := codec.QueryPoint(newQ)
	if err != nil {
		log.Fatal(err)
	}
	w := filled(bins, 1)
	w[2] = 9
	oqp, err := codec.EncodeOQP(newQ, newQ, w)
	if err != nil {
		log.Fatal(err)
	}
	changed, err := restored.Insert(newQP, oqp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 2: stored one more loop outcome (%v), %d points\n", changed, restored.Stats().Points)

	// ---- Session 3: the durable module survives a crash. ----
	// OpenDurable journals every accepted insert before the tree mutates;
	// CompactEvery commits a fresh log whose census is the whole tree, so
	// the journal, and with it recovery, stays short.
	stateDir := filepath.Join(dir, "durable")
	cfg := feedbackbypass.Config{Epsilon: 0.01, DefaultWeights: codec.DefaultWeights()}
	opts := feedbackbypass.DurableOptions{CompactEvery: 10}
	durable, err := feedbackbypass.OpenDurable(stateDir, codec.D(), codec.P(), cfg, opts)
	if err != nil {
		log.Fatal(err)
	}
	var lastQP []float64
	for i := 0; i < 15; i++ {
		q := randomHistogram(rng, bins)
		qp, err := codec.QueryPoint(q)
		if err != nil {
			log.Fatal(err)
		}
		w := filled(bins, 1)
		w[i%bins] = 3
		oqp, err := codec.EncodeOQP(q, q, w)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := durable.Insert(qp, oqp); err != nil {
			log.Fatal(err)
		}
		lastQP = qp
	}
	lastPred, err := durable.Predict(lastQP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 3: %d points, %d inserts journaled since the last compaction\n",
		durable.Stats().Points, durable.Journaled())
	// Crash: the process dies here — no Close, no compaction. The
	// acknowledged inserts are in the journal.

	// ---- Session 4: recovery = census rebuild + journal replay. ----
	recovered, err := feedbackbypass.OpenDurable(stateDir, codec.D(), codec.P(), cfg, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	recPred, err := recovered.Predict(lastQP)
	if err != nil {
		log.Fatal(err)
	}
	files, err := os.ReadDir(stateDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 4: recovered %d points from %d file (%s), prediction drift %g\n",
		recovered.Stats().Points, len(files), files[0].Name(),
		drift(lastPred.Delta, recPred.Delta)+drift(lastPred.Weights, recPred.Weights))
	// Output:
	// session 1: trained on 25 loops, tree has 25 points
	// session 2: loaded 25 points, prediction drift 0
	// session 2: stored one more loop outcome (true), 26 points
	// session 3: 15 points, 5 inserts journaled since the last compaction
	// session 4: recovered 15 points from 1 file (tree.fbwl), prediction drift 0
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
