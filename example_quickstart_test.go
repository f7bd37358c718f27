package feedbackbypass_test

import (
	"fmt"
	"log"

	feedbackbypass "repro"
)

// The minimal FeedbackBypass workflow through the public API: create a
// module for histogram features, store the outcome of a (simulated)
// feedback loop, and watch predictions for the same and a nearby query
// pick it up.
func Example_quickstart() {
	// A toy feature space: 4-bin normalized colour histograms. The module
	// learns in the reduced domain (3 query dimensions, 3 weight
	// parameters — Example 1 of the paper).
	bypass, codec, err := feedbackbypass.NewForHistograms(4, feedbackbypass.Config{Epsilon: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	// predict prints the module's prediction for query, decoded into a
	// query point and weights.
	predict := func(title string, query []float64) {
		point, err := codec.QueryPoint(query)
		if err != nil {
			log.Fatal(err)
		}
		oqp, err := bypass.Predict(point)
		if err != nil {
			log.Fatal(err)
		}
		qOpt, weights, err := codec.DecodeOQP(query, oqp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n  query point: %v\n  weights:     %v\n", title, qOpt, weights)
	}

	// The user's query: mostly bin 0, some bin 1. Before any feedback,
	// the module predicts the defaults.
	query := []float64{0.55, 0.25, 0.12, 0.08}
	predict("untrained prediction", query)

	// Suppose a feedback loop converged: the optimal query shifts mass to
	// bin 0, and bin 0 turns out to be four times as important.
	learned, err := codec.EncodeOQP(query, []float64{0.61, 0.21, 0.11, 0.07}, []float64{4, 1, 1, 1})
	if err != nil {
		log.Fatal(err)
	}
	point, err := codec.QueryPoint(query)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := bypass.Insert(point, learned); err != nil {
		log.Fatal(err)
	}

	// The same query now bypasses the loop entirely, and a nearby query
	// receives a prediction interpolated between the learned optimum and
	// the domain's default corners.
	predict("after learning, same query", query)
	predict("nearby query", []float64{0.53, 0.27, 0.12, 0.08})

	st := bypass.Stats()
	fmt.Printf("tree: %d stored point(s), %d leaves, depth %d\n", st.Points, st.Leaves, st.Depth)
	// Output:
	// untrained prediction:
	//   query point: [0.55 0.25 0.12 0.08]
	//   weights:     [1 1 1 1]
	// after learning, same query:
	//   query point: [0.61 0.21 0.11 0.07000000000000006]
	//   weights:     [4 1 1 1]
	// nearby query:
	//   query point: [0.5878181818181818 0.23145454545454547 0.11036363636363636 0.07036363636363642]
	//   weights:     [3.8033553237883293 1 1 1]
	// tree: 1 stored point(s), 4 leaves, depth 2
}
