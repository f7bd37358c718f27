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
	// (averages over all queries are what Figures 10–14 report): the most
	// good results gained in the top 5, then the most feedback cycles
	// saved, among the queries whose prediction costs no extra cycle. At
	// this scale the queries that save a cycle gain nothing in the top 5,
	// so the one picked converges in as many cycles as from the default.
	trained := map[int]bool{}
	for _, r := range session.Records {
		trained[r.ItemIndex] = true
	}
	var res *experiments.Figure1Result
	var fromDefault, fromPredicted int
	for _, idx := range session.DS.ByCategory["Mammal"] {
		if trained[idx] {
			continue
		}
		cand, err := experiments.Figure1(session, idx, 5)
		if err != nil {
			log.Fatal(err)
		}
		def, pred := feedbackCycles(session, idx, cfg.K)
		if def < pred {
			continue
		}
		gain, best := cand.GoodBypass-cand.GoodDefault, 0
		if res != nil {
			best = res.GoodBypass - res.GoodDefault
		}
		if res == nil || gain > best || gain == best && def-pred > fromDefault-fromPredicted {
			res, fromDefault, fromPredicted = cand, def, pred
		}
	}
	if res == nil {
		log.Fatal("no untrained Mammal image available; increase Scale")
	}
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
	saved := fromDefault - fromPredicted
	fmt.Printf("\nfeedback cycles to convergence: %d from default, %d from prediction (saved %d cycles ≈ %d objects)\n",
		fromDefault, fromPredicted, saved, saved*cfg.K)

	// Output:
	// building collection and training on 250 queries ...
	// collection: 1468 images in 17 categories
	// simplex tree: 249 points, depth 12
	//
	// query: item 108 (Mammal), never seen by the module
	//
	// top-5 with default parameters:
	//   * item 108   Mammal     theme=savanna    distance=0.0000
	//     item 874   Desert     theme=dune       distance=0.0932
	//   * item 151   Mammal     theme=savanna    distance=0.0942
	//   * item 109   Mammal     theme=savanna    distance=0.0963
	//     item 900   Desert     theme=dune       distance=0.1125
	//
	// top-5 with FeedbackBypass predicted parameters:
	//   * item 108   Mammal     theme=savanna    distance=0.0027
	//   * item 151   Mammal     theme=savanna    distance=0.0214
	//     item 874   Desert     theme=dune       distance=0.0220
	//   * item 109   Mammal     theme=savanna    distance=0.0224
	//   * item 71    Mammal     theme=savanna    distance=0.0248
	//
	// relevant results: 3/5 default vs 4/5 FeedbackBypass
	//
	// feedback cycles to convergence: 2 from default, 2 from prediction (saved 0 cycles ≈ 0 objects)
}

// feedbackCycles is the engine-level view of one query: the feedback
// cycles the oracle loop takes to converge from the default parameters
// and from the ones FeedbackBypass predicts.
func feedbackCycles(session *experiments.Session, idx, k int) (fromDefault, fromPredicted int) {
	item := session.DS.Items[idx]
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
	def, err := experiments.OracleLoop(session.Engine, item.Category, item.Feature, session.Engine.UniformWeights(), k)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := experiments.OracleLoop(session.Engine, item.Category, qPred, wPred, k)
	if err != nil {
		log.Fatal(err)
	}
	return def.Rounds(), pred.Rounds()
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
