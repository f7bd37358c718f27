package feedbackbypass_test

import (
	"fmt"
	"log"

	"repro/internal/experiments"
)

// The paper's headline scenario end to end: build the synthetic
// categorized image collection, attach FeedbackBypass to the interactive
// retrieval engine, train it on a stream of queries with automatic
// relevance feedback, and reproduce the Figure 1 comparison — default
// results against FeedbackBypass results — for a never-seen query.
func Example_imageRetrieval() {
	cfg := experiments.Config{
		Seed:       42,
		Scale:      0.15, // ≈1,500 images
		NumQueries: 250,
		K:          12,
		Epsilon:    0.05,
	}
	fmt.Printf("building collection and training on %d queries ...\n", cfg.NumQueries)
	session, err := experiments.NewSession(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Run(); err != nil {
		log.Fatal(err)
	}
	stats := session.Bypass.Stats()
	fmt.Printf("collection: %d images in %d categories\n", session.DS.Len(), len(session.DS.ByCategory))
	fmt.Printf("simplex tree: %d points, depth %d\n\n", stats.Points, stats.Depth)

	// Find an illustrative never-trained Mammal query — like the paper's
	// Figure 1, this picks a query where the prediction visibly helps
	// (averages over all queries are what Figures 10–14 report).
	trained := map[int]bool{}
	for _, r := range session.Records {
		trained[r.ItemIndex] = true
	}
	var res *experiments.Figure1Result
	for _, idx := range session.DS.ByCategory["Mammal"] {
		if trained[idx] {
			continue
		}
		cand, err := experiments.Figure1(session, idx, 5)
		if err != nil {
			log.Fatal(err)
		}
		if res == nil || cand.GoodBypass-cand.GoodDefault > res.GoodBypass-res.GoodDefault {
			res = cand
		}
	}
	if res == nil {
		log.Fatal("no untrained Mammal image available; increase Scale")
	}
	queryIdx := res.QueryIndex
	fmt.Printf("query: item %d (%s), never seen by the module\n\n", res.QueryIndex, res.QueryCategory)
	fmt.Println("top-5 with default parameters:")
	for _, l := range res.DefaultTop {
		printLine(l)
	}
	fmt.Println("\ntop-5 with FeedbackBypass predicted parameters:")
	for _, l := range res.BypassTop {
		printLine(l)
	}
	fmt.Printf("\nrelevant results: %d/5 default vs %d/5 FeedbackBypass\n", res.GoodDefault, res.GoodBypass)

	// The engine-level view: how many feedback cycles does the prediction
	// save for this query?
	item := session.DS.Items[queryIdx]
	qp, err := session.Codec.QueryPoint(item.Feature)
	if err != nil {
		log.Fatal(err)
	}
	oqp, err := session.Bypass.Predict(qp)
	if err != nil {
		log.Fatal(err)
	}
	qPred, wPred, err := session.Codec.DecodeOQP(item.Feature, oqp)
	if err != nil {
		log.Fatal(err)
	}
	fromDefault, err := experiments.OracleLoop(session.Engine, item.Category, item.Feature, session.Engine.UniformWeights(), cfg.K)
	if err != nil {
		log.Fatal(err)
	}
	fromPredicted, err := experiments.OracleLoop(session.Engine, item.Category, qPred, wPred, cfg.K)
	if err != nil {
		log.Fatal(err)
	}
	saved := fromDefault.Rounds() - fromPredicted.Rounds()
	fmt.Printf("\nfeedback cycles to convergence: %d from default, %d from prediction (saved %d cycles ≈ %d objects)\n",
		fromDefault.Rounds(), fromPredicted.Rounds(), saved, saved*cfg.K)

	// Output:
	// building collection and training on 250 queries ...
	// collection: 1468 images in 17 categories
	// simplex tree: 249 points, depth 12
	//
	// query: item 89 (Mammal), never seen by the module
	//
	// top-5 with default parameters:
	//   * item 89    Mammal     theme=forest     distance=0.0000
	//   * item 85    Mammal     theme=forest     distance=0.1310
	//     item 598   Urban      theme=brick      distance=0.2097
	//     item 356   Monument   theme=sunset     distance=0.2296
	//     item 629   Urban      theme=brick      distance=0.2336
	//
	// top-5 with FeedbackBypass predicted parameters:
	//   * item 89    Mammal     theme=forest     distance=0.0071
	//   * item 85    Mammal     theme=forest     distance=0.0678
	//   * item 191   Mammal     theme=forest     distance=0.1105
	//     item 598   Urban      theme=brick      distance=0.1231
	//   * item 168   Mammal     theme=dusk       distance=0.1238
	//
	// relevant results: 2/5 default vs 4/5 FeedbackBypass
	//
	// feedback cycles to convergence: 5 from default, 6 from prediction (saved -1 cycles ≈ -12 objects)
}

// printLine prints one result of a Figure 1 list, starred when it is a
// good match.
func printLine(l experiments.ResultLine) {
	mark := " "
	if l.Good {
		mark = "*"
	}
	fmt.Printf("  %s item %-5d %-10s theme=%-10s distance=%.4f\n", mark, l.ItemIndex, l.Category, l.Theme, l.Distance)
}
