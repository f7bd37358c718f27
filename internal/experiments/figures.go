package experiments

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/eval"
)

// defaultSampleEvery picks a readable sampling interval for series over a
// query stream.
func defaultSampleEvery(numQueries int) int {
	every := numQueries / 20
	if every < 1 {
		every = 1
	}
	return every
}

// Figure10 reproduces Figure 10: (a) running-average precision versus the
// number of processed queries for the Default, FeedbackBypass, and
// AlreadySeen strategies at the session's K, and (b) the precision gains
// of FeedbackBypass and AlreadySeen over Default.
type Figure10Result struct {
	K         int
	Precision SeriesByScenario
	GainFB    *eval.Series
	GainSeen  *eval.Series
}

// Figure10 requires a completed session.
func Figure10(s *Session) (*Figure10Result, error) {
	if len(s.Records) == 0 {
		return nil, errors.New("experiments: session has no records; call Run first")
	}
	every := defaultSampleEvery(len(s.Records))
	var def, fb, seen []float64
	for _, r := range s.Records {
		def = append(def, r.PrecisionDefault())
		fb = append(fb, r.PrecisionBypass())
		seen = append(seen, r.PrecisionSeen())
	}
	defS, err := eval.CumulativeSeries("Default", def, every)
	if err != nil {
		return nil, err
	}
	fbS, err := eval.CumulativeSeries("FeedbackBypass", fb, every)
	if err != nil {
		return nil, err
	}
	seenS, err := eval.CumulativeSeries("AlreadySeen", seen, every)
	if err != nil {
		return nil, err
	}
	gainFB := &eval.Series{Label: "FeedbackBypass"}
	gainSeen := &eval.Series{Label: "AlreadySeen"}
	for i := range defS.X {
		if defS.Y[i] <= 0 {
			continue
		}
		gFB, err := eval.PrecisionGain(fbS.Y[i], defS.Y[i])
		if err != nil {
			return nil, err
		}
		gSeen, err := eval.PrecisionGain(seenS.Y[i], defS.Y[i])
		if err != nil {
			return nil, err
		}
		gainFB.Append(defS.X[i], gFB)
		gainSeen.Append(defS.X[i], gSeen)
	}
	return &Figure10Result{
		K:         s.Config.K,
		Precision: SeriesByScenario{Default: defS, Bypass: fbS, AlreadySeen: seenS},
		GainFB:    gainFB,
		GainSeen:  gainSeen,
	}, nil
}

// Figure11Result reproduces Figure 11: precision (a), recall (b), and the
// precision-recall curve (c) as functions of the number of retrieved
// objects k after the training stream has been processed.
type Figure11Result struct {
	Ks        []int
	Precision SeriesByScenario
	Recall    SeriesByScenario
	// PR is precision (Y) against recall (X) per scenario, parameterized
	// by k.
	PR SeriesByScenario
}

// Figure11 evaluates the trained session on fresh queries over a sweep of
// k values (the paper sweeps 10..80).
func Figure11(s *Session, ks []int, numEval int) (*Figure11Result, error) {
	if len(s.Records) == 0 {
		return nil, errors.New("experiments: session has no records; call Run first")
	}
	if len(ks) == 0 {
		ks = []int{10, 20, 30, 40, 50, 60, 70, 80}
	}
	sorted := append([]int(nil), ks...)
	sort.Ints(sorted)
	if numEval <= 0 {
		numEval = 100
	}
	evalQs, err := s.SampleEvalQueries(numEval)
	if err != nil {
		return nil, err
	}
	nK := len(sorted)
	sumPrec := map[string][]float64{"d": make([]float64, nK), "b": make([]float64, nK), "s": make([]float64, nK)}
	sumRec := map[string][]float64{"d": make([]float64, nK), "b": make([]float64, nK), "s": make([]float64, nK)}
	// One evaluation pass over the eval stream: a Predict, an oracle loop
	// and three retrievals per query.
	counts, err := s.EvaluateManyAtK(evalQs, sorted)
	if err != nil {
		return nil, err
	}
	for qidx, qi := range evalQs {
		c := counts[qidx]
		rel := s.DS.Relevant(s.DS.Items[qi].Category)
		for i, k := range sorted {
			sumPrec["d"][i] += float64(c.GoodDefault[i]) / float64(k)
			sumPrec["b"][i] += float64(c.GoodBypass[i]) / float64(k)
			sumPrec["s"][i] += float64(c.GoodSeen[i]) / float64(k)
			sumRec["d"][i] += float64(c.GoodDefault[i]) / float64(rel)
			sumRec["b"][i] += float64(c.GoodBypass[i]) / float64(rel)
			sumRec["s"][i] += float64(c.GoodSeen[i]) / float64(rel)
		}
	}
	n := float64(len(evalQs))
	mk := func(label string, xs []int, ys []float64) *eval.Series {
		out := &eval.Series{Label: label}
		for i, x := range xs {
			out.Append(float64(x), ys[i]/n)
		}
		return out
	}
	res := &Figure11Result{Ks: sorted}
	res.Precision = SeriesByScenario{
		Default:     mk("Default", sorted, sumPrec["d"]),
		Bypass:      mk("FeedbackBypass", sorted, sumPrec["b"]),
		AlreadySeen: mk("AlreadySeen", sorted, sumPrec["s"]),
	}
	res.Recall = SeriesByScenario{
		Default:     mk("Default", sorted, sumRec["d"]),
		Bypass:      mk("FeedbackBypass", sorted, sumRec["b"]),
		AlreadySeen: mk("AlreadySeen", sorted, sumRec["s"]),
	}
	pr := func(label string, prec, rec *eval.Series) *eval.Series {
		out := &eval.Series{Label: label}
		for i := range prec.Y {
			out.Append(rec.Y[i], prec.Y[i])
		}
		return out
	}
	res.PR = SeriesByScenario{
		Default:     pr("Default", res.Precision.Default, res.Recall.Default),
		Bypass:      pr("FeedbackBypass", res.Precision.Bypass, res.Recall.Bypass),
		AlreadySeen: pr("AlreadySeen", res.Precision.AlreadySeen, res.Recall.AlreadySeen),
	}
	return res, nil
}

// Figure12Result reproduces Figure 12: FeedbackBypass precision (a) and
// recall (b) learning curves for several values of k. Each entry pairs a k
// with its curves.
type Figure12Result struct {
	Ks        []int
	Precision []*eval.Series // one per k
	Recall    []*eval.Series
}

// Figure12 runs one session per k over the same collection (the paper uses
// k = 20, 50, 80).
func Figure12(cfg Config, ks []int) (*Figure12Result, error) {
	if len(ks) == 0 {
		ks = []int{20, 50, 80}
	}
	base, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	res := &Figure12Result{Ks: ks}
	for _, k := range ks {
		kcfg := cfg
		kcfg.K = k
		kcfg.MeasureSavings = false
		sess, err := NewSessionOver(kcfg, base.DS)
		if err != nil {
			return nil, err
		}
		if err := sess.Run(); err != nil {
			return nil, err
		}
		every := defaultSampleEvery(len(sess.Records))
		var prec, rec []float64
		for _, r := range sess.Records {
			prec = append(prec, r.PrecisionBypass())
			rec = append(rec, r.RecallBypass())
		}
		p, err := eval.CumulativeSeries(fmt.Sprintf("k = %d", k), prec, every)
		if err != nil {
			return nil, err
		}
		r, err := eval.CumulativeSeries(fmt.Sprintf("k = %d", k), rec, every)
		if err != nil {
			return nil, err
		}
		res.Precision = append(res.Precision, p)
		res.Recall = append(res.Recall, r)
	}
	return res, nil
}

// Figure13Result reproduces Figure 13: FeedbackBypass versions trained
// with different k values, evaluated while retrieving r = 10..80 objects.
type Figure13Result struct {
	TrainKs   []int
	Rs        []int
	Precision []*eval.Series // one per training k, X = retrieved objects
	Recall    []*eval.Series
}

// Figure13 trains one session per k over the same collection and evaluates
// each at every r.
func Figure13(cfg Config, trainKs, rs []int, numEval int) (*Figure13Result, error) {
	if len(trainKs) == 0 {
		trainKs = []int{20, 50, 80}
	}
	if len(rs) == 0 {
		rs = []int{10, 20, 30, 40, 50, 60, 70, 80}
	}
	if numEval <= 0 {
		numEval = 100
	}
	base, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	res := &Figure13Result{TrainKs: trainKs, Rs: rs}
	for _, k := range trainKs {
		kcfg := cfg
		kcfg.K = k
		kcfg.MeasureSavings = false
		sess, err := NewSessionOver(kcfg, base.DS)
		if err != nil {
			return nil, err
		}
		if err := sess.Run(); err != nil {
			return nil, err
		}
		evalQs, err := sess.SampleEvalQueries(numEval)
		if err != nil {
			return nil, err
		}
		sumPrec := make([]float64, len(rs))
		sumRec := make([]float64, len(rs))
		counts, err := sess.EvaluateManyAtK(evalQs, rs)
		if err != nil {
			return nil, err
		}
		for qidx, qi := range evalQs {
			rel := sess.DS.Relevant(sess.DS.Items[qi].Category)
			for i, r := range rs {
				sumPrec[i] += float64(counts[qidx].GoodBypass[i]) / float64(r)
				sumRec[i] += float64(counts[qidx].GoodBypass[i]) / float64(rel)
			}
		}
		p := &eval.Series{Label: fmt.Sprintf("k = %d", k)}
		r := &eval.Series{Label: fmt.Sprintf("k = %d", k)}
		for i, rv := range rs {
			p.Append(float64(rv), sumPrec[i]/float64(len(evalQs)))
			r.Append(float64(rv), sumRec[i]/float64(len(evalQs)))
		}
		res.Precision = append(res.Precision, p)
		res.Recall = append(res.Recall, r)
	}
	return res, nil
}

// CategoryResult is one bar group of Figure 14.
type CategoryResult struct {
	Category                                string
	Queries                                 int
	PrecDefault, PrecBypass, PrecSeen       float64
	RecallDefault, RecallBypass, RecallSeen float64
}

// Figure14 reproduces Figure 14: per-category average precision and recall
// for the three strategies, from a completed session's records.
func Figure14(s *Session) ([]CategoryResult, error) {
	if len(s.Records) == 0 {
		return nil, errors.New("experiments: session has no records; call Run first")
	}
	byCat := map[string][]QueryRecord{}
	for _, r := range s.Records {
		byCat[r.Category] = append(byCat[r.Category], r)
	}
	var out []CategoryResult
	for _, cat := range s.DS.QueryCats {
		recs := byCat[cat]
		if len(recs) == 0 {
			continue
		}
		cr := CategoryResult{Category: cat, Queries: len(recs)}
		for _, r := range recs {
			cr.PrecDefault += r.PrecisionDefault()
			cr.PrecBypass += r.PrecisionBypass()
			cr.PrecSeen += r.PrecisionSeen()
			cr.RecallDefault += r.RecallDefault()
			cr.RecallBypass += r.RecallBypass()
			cr.RecallSeen += r.RecallSeen()
		}
		n := float64(len(recs))
		cr.PrecDefault /= n
		cr.PrecBypass /= n
		cr.PrecSeen /= n
		cr.RecallDefault /= n
		cr.RecallBypass /= n
		cr.RecallSeen /= n
		out = append(out, cr)
	}
	return out, nil
}

// Figure15Result reproduces Figure 15: average saved feedback cycles (a)
// and saved retrieved objects (b) versus the number of processed queries,
// for several k values.
type Figure15Result struct {
	Ks           []int
	SavedCycles  []*eval.Series
	SavedObjects []*eval.Series
}

// Figure15 runs one savings-enabled session per k over the same collection
// (the paper uses k = 20, 50).
func Figure15(cfg Config, ks []int) (*Figure15Result, error) {
	if len(ks) == 0 {
		ks = []int{20, 50}
	}
	base, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	res := &Figure15Result{Ks: ks}
	for _, k := range ks {
		kcfg := cfg
		kcfg.K = k
		kcfg.MeasureSavings = true
		sess, err := NewSessionOver(kcfg, base.DS)
		if err != nil {
			return nil, err
		}
		if err := sess.Run(); err != nil {
			return nil, err
		}
		every := defaultSampleEvery(len(sess.Records))
		var saved []float64
		for _, r := range sess.Records {
			saved = append(saved, float64(eval.SavedCycles(r.ItersFromDefault, r.ItersFromPredicted)))
		}
		// The paper plots the trailing behaviour from query 300 on; a
		// window average shows the improvement over time without the
		// early-training drag a cumulative average would carry.
		window := len(saved) / 3
		if window < 1 {
			window = 1
		}
		sc, err := eval.WindowSeries(fmt.Sprintf("k = %d", k), saved, window, every)
		if err != nil {
			return nil, err
		}
		so := &eval.Series{Label: fmt.Sprintf("k = %d", k)}
		for i := range sc.X {
			so.Append(sc.X[i], sc.Y[i]*float64(k))
		}
		res.SavedCycles = append(res.SavedCycles, sc)
		res.SavedObjects = append(res.SavedObjects, so)
	}
	return res, nil
}

// Figure16Result reproduces Figure 16: average number of simplices
// traversed per query and the depth of the Simplex Tree, as functions of
// the number of processed queries.
type Figure16Result struct {
	Traversed *eval.Series
	Depth     *eval.Series
}

// Figure16 derives both series from a completed session's records.
func Figure16(s *Session) (*Figure16Result, error) {
	if len(s.Records) == 0 {
		return nil, errors.New("experiments: session has no records; call Run first")
	}
	every := defaultSampleEvery(len(s.Records))
	var traversed []float64
	for _, r := range s.Records {
		traversed = append(traversed, float64(r.Traversed))
	}
	tr, err := eval.CumulativeSeries("no. of simplices traversed", traversed, every)
	if err != nil {
		return nil, err
	}
	depth := &eval.Series{Label: "Depth of Simplex Tree"}
	for i, r := range s.Records {
		if (i+1)%every == 0 || i == len(s.Records)-1 {
			depth.Append(float64(i+1), float64(r.TreeDepth))
		}
	}
	return &Figure16Result{Traversed: tr, Depth: depth}, nil
}

// Figure1Result reproduces the qualitative Figure 1: the top-5 results for
// one query under default parameters versus FeedbackBypass predictions.
type Figure1Result struct {
	QueryIndex    int
	QueryCategory string
	DefaultTop    []ResultLine
	BypassTop     []ResultLine
	GoodDefault   int
	GoodBypass    int
}

// ResultLine is one retrieved object with its relevance.
type ResultLine struct {
	ItemIndex int
	Category  string
	Theme     string
	Distance  float64
	Good      bool
}

// Figure1 retrieves the top-n results for a query under both strategies.
// The session should be trained first, so predictions are informative.
func Figure1(s *Session, itemIdx, n int) (*Figure1Result, error) {
	if itemIdx < 0 || itemIdx >= s.DS.Len() {
		return nil, fmt.Errorf("experiments: item index %d out of range", itemIdx)
	}
	if n <= 0 {
		n = 5
	}
	item := s.DS.Items[itemIdx]
	q := item.Feature
	qp, err := s.Codec.QueryPoint(q)
	if err != nil {
		return nil, err
	}
	oqp, err := s.Bypass.Predict(qp)
	if err != nil {
		return nil, err
	}
	qPred, wPred, err := s.Codec.DecodeOQP(q, oqp)
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{QueryIndex: itemIdx, QueryCategory: item.Category}
	defRes, err := s.Engine.Retrieve(q, s.Engine.UniformWeights(), n)
	if err != nil {
		return nil, err
	}
	bypRes, err := s.Engine.Retrieve(qPred, wPred, n)
	if err != nil {
		return nil, err
	}
	for _, r := range defRes {
		it := s.DS.Items[r.Index]
		good := it.Category == item.Category
		res.DefaultTop = append(res.DefaultTop, ResultLine{ItemIndex: r.Index, Category: it.Category, Theme: it.Theme, Distance: r.Distance, Good: good})
		if good {
			res.GoodDefault++
		}
	}
	for _, r := range bypRes {
		it := s.DS.Items[r.Index]
		good := it.Category == item.Category
		res.BypassTop = append(res.BypassTop, ResultLine{ItemIndex: r.Index, Category: it.Category, Theme: it.Theme, Distance: r.Distance, Good: good})
		if good {
			res.GoodBypass++
		}
	}
	return res, nil
}

// Figure9Sample describes one sampled image of a category — the textual
// stand-in for the paper's Figure 9 strip of Fish images.
type Figure9Sample struct {
	ItemIndex    int
	Theme        string
	DominantBins []int // top histogram bins by mass
}

// Figure9 samples n images of a category and reports their themes and
// dominant colour bins, demonstrating the within-category colour diversity
// the paper illustrates with the Fish category.
func Figure9(s *Session, category string, n int) ([]Figure9Sample, error) {
	idxs := s.DS.ByCategory[category]
	if len(idxs) == 0 {
		return nil, fmt.Errorf("experiments: category %q has no items", category)
	}
	if n <= 0 || n > len(idxs) {
		n = 4
		if n > len(idxs) {
			n = len(idxs)
		}
	}
	var out []Figure9Sample
	for i := 0; i < n; i++ {
		idx := idxs[i*len(idxs)/n]
		item := s.DS.Items[idx]
		type bm struct {
			bin  int
			mass float64
		}
		var bins []bm
		for b, m := range item.Feature {
			bins = append(bins, bm{b, m})
		}
		sort.Slice(bins, func(a, b int) bool { return bins[a].mass > bins[b].mass })
		top := []int{}
		for j := 0; j < 3 && j < len(bins); j++ {
			top = append(top, bins[j].bin)
		}
		out = append(out, Figure9Sample{ItemIndex: idx, Theme: item.Theme, DominantBins: top})
	}
	return out, nil
}
