// Command fbbench regenerates every figure of the paper's evaluation
// (Figures 1 and 9–16) on the synthetic IMSI-like collection and prints
// the same series the paper plots.
//
// Usage:
//
//	fbbench -figure all -scale 1 -queries 1000 -k 50            # paper scale
//	fbbench -figure 10 -scale 0.3 -queries 700 -k 15            # quick look
//	fbbench -figure 15 -scale 0.3 -queries 700                  # savings
//
// Absolute values depend on the synthetic collection; the shapes — who
// wins, by roughly what factor, where curves cross — are the reproduction
// target (the drivers are in internal/experiments).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/persist"
)

func main() {
	var (
		figure   = flag.String("figure", "all", "figure to regenerate: all, 1, 9, 10, 11, 12, 13, 14, 15, 16, or lifecycle (bypass aging: drifting soak with aging on vs off)")
		scale    = flag.Float64("scale", 0.3, "collection scale (1 = the paper's ~10,000 images)")
		queries  = flag.Int("queries", 700, "training queries to process")
		k        = flag.Int("k", 15, "results per query (paper: 50)")
		seed     = flag.Int64("seed", 1, "random seed")
		epsilon  = flag.Float64("epsilon", 0.05, "Simplex Tree insert threshold ε")
		numEval  = flag.Int("eval", 80, "evaluation queries for the k-sweep figures (11, 13)")
		save     = flag.String("save", "", "persist the trained Simplex Tree to this file (inspect with fbtree); needs a figure that trains the shared session")
		jsonPath = flag.String("json", "", "additionally write every printed series as machine-readable JSON to this file")

		lcInserts = flag.Int("lifecycle-inserts", 0, "lifecycle figure: drifting inserts per soak mode (0 = default)")
		lcHorizon = flag.Int("lifecycle-horizon", 0, "lifecycle figure: aging horizon in logical inserts (0 = default)")
		lcCompact = flag.Int("lifecycle-compact-every", 0, "lifecycle figure: inserts between aging compactions (0 = default)")
	)
	flag.Parse()

	cfg := experiments.Config{
		Seed:       *seed,
		Scale:      *scale,
		NumQueries: *queries,
		K:          *k,
		Epsilon:    *epsilon,
	}

	if *jsonPath != "" {
		report = &jsonReport{
			Meta: reportMeta{
				Scale: *scale, Queries: *queries, K: *k, Seed: *seed,
				Epsilon: *epsilon, Figure: *figure, Timestamp: time.Now().UTC().Format(time.RFC3339),
				Env: experiments.CollectEnvelope(),
			},
			Series: map[string][]jsonSeries{},
		}
	}
	start := time.Now()

	// Standalone figures build their own state and are not part of "all".
	standalone := []struct {
		name string
		run  func()
	}{
		{"lifecycle", func() { runLifecycleBench(*seed, *lcInserts, uint64(*lcHorizon), *lcCompact) }},
	}
	// The paper's figures; those marked shared read one trained session.
	paper := []struct {
		name   string
		shared bool
		print  func(s *experiments.Session)
	}{
		{"1", true, printFigure1},
		{"9", true, printFigure9},
		{"10", true, printFigure10},
		{"11", true, func(s *experiments.Session) { printFigure11(s, *numEval) }},
		{"12", false, func(*experiments.Session) { printFigure12(cfg) }},
		{"13", false, func(*experiments.Session) { printFigure13(cfg, *numEval) }},
		{"14", true, printFigure14},
		{"15", false, func(*experiments.Session) { printFigure15(cfg) }},
		{"16", true, printFigure16},
	}
	want := func(f string) bool { return *figure == "all" || *figure == f }
	valid, needShared := []string{"all"}, false
	for _, f := range paper {
		valid = append(valid, f.name)
		needShared = needShared || f.shared && want(f.name)
	}
	for _, b := range standalone {
		valid = append(valid, b.name)
	}
	if !slices.Contains(valid, *figure) {
		fmt.Fprintf(os.Stderr, "fbbench: unknown -figure %q; valid: %s\n", *figure, strings.Join(valid, ", "))
		os.Exit(2)
	}
	if *save != "" && !needShared {
		fmt.Fprintln(os.Stderr, "fbbench: -save requires a figure that trains the shared session")
		os.Exit(2)
	}
	for _, b := range standalone {
		if *figure == b.name {
			b.run()
			writeReport(*jsonPath)
			fmt.Printf("# total %.1fs\n", time.Since(start).Seconds())
			return
		}
	}

	var shared *experiments.Session
	if needShared {
		scfg := cfg
		scfg.MeasureSavings = want("10") // only Figure 15 needs it elsewhere
		fmt.Printf("# building collection (scale %.2f) and processing %d queries at k=%d ...\n", *scale, *queries, *k)
		var err error
		shared, err = experiments.NewSession(scfg)
		if err != nil {
			fail(err)
		}
		if err := shared.Run(); err != nil {
			fail(err)
		}
		fmt.Printf("# collection: %d images, tree: %d points, depth %d (%.1fs)\n\n",
			shared.DS.Len(), shared.Bypass.Stats().Points, shared.Bypass.Stats().Depth, time.Since(start).Seconds())
	}
	for _, f := range paper {
		if want(f.name) {
			section = "figure" + f.name
			f.print(shared)
		}
	}
	if *save != "" {
		if err := persist.SaveFile(*save, shared.Bypass.Tree()); err != nil {
			fail(err)
		}
		fmt.Printf("# saved trained Simplex Tree to %s\n", *save)
	}
	writeReport(*jsonPath)
	fmt.Printf("# total %.1fs\n", time.Since(start).Seconds())
}

// jsonReport accumulates everything printed for the -json flag.
type jsonReport struct {
	Meta      reportMeta                   `json:"meta"`
	Series    map[string][]jsonSeries      `json:"series,omitempty"`
	Lifecycle *experiments.LifecycleResult `json:"lifecycle,omitempty"`
}

type reportMeta struct {
	Scale     float64              `json:"scale"`
	Queries   int                  `json:"queries"`
	K         int                  `json:"k"`
	Seed      int64                `json:"seed"`
	Epsilon   float64              `json:"epsilon"`
	Figure    string               `json:"figure"`
	Timestamp string               `json:"timestamp"`
	Env       experiments.Envelope `json:"env"`
}

type jsonSeries struct {
	Label  string    `json:"label"`
	XLabel string    `json:"x_label"`
	X      []float64 `json:"x"`
	Y      []float64 `json:"y"`
}

// report is nil unless -json was given; section names the figure being
// printed so recorded series land under it.
var (
	report  *jsonReport
	section string
)

func record(xLabel string, series ...*eval.Series) {
	if report == nil {
		return
	}
	for _, s := range series {
		report.Series[section] = append(report.Series[section], jsonSeries{
			Label: s.Label, XLabel: xLabel, X: s.X, Y: s.Y,
		})
	}
}

func writeReport(path string) {
	if report == nil || path == "" {
		return
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("# wrote JSON report to %s\n", path)
}

// runLifecycleBench runs the bypass-lifecycle figure: the drifting soak
// with aging+compaction against an aging-off control (bounded memory at
// stable hit rate vs unbounded growth).
func runLifecycleBench(seed int64, inserts int, horizon uint64, compactEvery int) {
	cfg := experiments.DefaultLifecycleConfig()
	cfg.Seed = seed
	if inserts > 0 {
		cfg.Inserts = inserts
	}
	if horizon > 0 {
		cfg.AgeHorizon = horizon
	}
	if compactEvery > 0 {
		cfg.CompactEvery = compactEvery
	}
	header(fmt.Sprintf("Lifecycle: aging horizon %d, compaction every %d of %d drifting inserts (D=%d P=%d)",
		cfg.AgeHorizon, cfg.CompactEvery, cfg.Inserts, cfg.D, cfg.P))
	res, err := experiments.RunLifecycle(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Println("# drifting soak: query window moves across the simplex; old vertices stop being reinforced")
	for _, s := range []experiments.LifecycleSeries{res.Aging, res.Control} {
		fmt.Printf("\n# mode %s (horizon %d): %d compactions reclaimed %d vertices; peak %d points, final %d\n",
			s.Mode, s.AgeHorizon, s.Compactions, s.Reclaimed, s.PeakPoints, s.FinalPoints)
		fmt.Printf("%-10s %10s %12s %9s\n", "inserts", "points", "bytes(KB)", "hit-rate")
		for _, p := range s.Samples {
			fmt.Printf("%-10d %10d %12.1f %8.1f%%\n",
				p.Inserts, p.Points, float64(p.SizeBytes)/1024, 100*p.HitRate)
		}
	}
	fmt.Println()
	if report != nil {
		report.Lifecycle = &res
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fbbench:", err)
	os.Exit(1)
}

func header(title string) {
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 72))
}

// printSeries renders several series sharing an X axis as one table and
// records them for the -json report.
func printSeries(xLabel string, series ...*eval.Series) {
	record(xLabel, series...)
	const colWidth = 28
	fmt.Printf("%-12s", xLabel)
	for _, s := range series {
		label := s.Label
		if len(label) > colWidth-2 {
			label = label[:colWidth-2]
		}
		fmt.Printf("%*s", colWidth, label)
	}
	fmt.Println()
	if len(series) == 0 || series[0].Len() == 0 {
		fmt.Println("(no data)")
		return
	}
	for i := range series[0].X {
		fmt.Printf("%-12.4g", series[0].X[i])
		for _, s := range series {
			if i < s.Len() {
				fmt.Printf("%*.4f", colWidth, s.Y[i])
			} else {
				fmt.Printf("%*s", colWidth, "-")
			}
		}
		fmt.Println()
	}
	fmt.Println()
}

func printFigure1(s *experiments.Session) {
	header("Figure 1: default vs. FeedbackBypass results for one query")
	// Pick the first Mammal query of the stream, echoing the paper's
	// example.
	itemIdx := -1
	for _, r := range s.Records {
		if r.Category == "Mammal" {
			itemIdx = r.ItemIndex
			break
		}
	}
	if itemIdx < 0 {
		itemIdx = s.Records[0].ItemIndex
	}
	res, err := experiments.Figure1(s, itemIdx, 5)
	if err != nil {
		fail(err)
	}
	fmt.Printf("query: item %d, category %s\n\n", res.QueryIndex, res.QueryCategory)
	fmt.Printf("%-28s %s\n", "Default results", "FeedbackBypass results")
	for i := range res.DefaultTop {
		d := res.DefaultTop[i]
		b := res.BypassTop[i]
		fmt.Printf("%-28s %s\n", lineOf(d), lineOf(b))
	}
	fmt.Printf("\nrelevant in top 5: default %d, FeedbackBypass %d\n\n", res.GoodDefault, res.GoodBypass)
}

func lineOf(l experiments.ResultLine) string {
	mark := " "
	if l.Good {
		mark = "*"
	}
	return fmt.Sprintf("%s %-10s/%-9s d=%.3f", mark, l.Category, l.Theme, l.Distance)
}

func printFigure9(s *experiments.Session) {
	header("Figure 9: sample images from the Fish category (theme diversity)")
	samples, err := experiments.Figure9(s, "Fish", 4)
	if err != nil {
		fail(err)
	}
	for _, smp := range samples {
		fmt.Printf("item %5d  theme=%-10s dominant bins=%v\n", smp.ItemIndex, smp.Theme, smp.DominantBins)
	}
	fmt.Println()
}

func printFigure10(s *experiments.Session) {
	res, err := experiments.Figure10(s)
	if err != nil {
		fail(err)
	}
	header(fmt.Sprintf("Figure 10a: precision vs. no. of queries (k = %d)", res.K))
	printSeries("queries", res.Precision.AlreadySeen, res.Precision.Bypass, res.Precision.Default)
	header("Figure 10b: precision gain (%) over Default")
	printSeries("queries", res.GainSeen, res.GainFB)
}

func printFigure11(s *experiments.Session, numEval int) {
	res, err := experiments.Figure11(s, nil, numEval)
	if err != nil {
		fail(err)
	}
	header("Figure 11a: precision vs. k (trained tree)")
	printSeries("k", res.Precision.AlreadySeen, res.Precision.Bypass, res.Precision.Default)
	header("Figure 11b: recall vs. k")
	printSeries("k", res.Recall.AlreadySeen, res.Recall.Bypass, res.Recall.Default)
	header("Figure 11c: precision vs. recall (X = recall)")
	printSeries("recall", res.PR.AlreadySeen, res.PR.Bypass, res.PR.Default)
}

func printFigure12(cfg experiments.Config) {
	fmt.Println("# Figure 12: training one session per k ... (slow)")
	res, err := experiments.Figure12(cfg, nil)
	if err != nil {
		fail(err)
	}
	header("Figure 12a: FeedbackBypass precision vs. no. of queries, per k")
	printSeries("queries", res.Precision...)
	header("Figure 12b: FeedbackBypass recall vs. no. of queries, per k")
	printSeries("queries", res.Recall...)
}

func printFigure13(cfg experiments.Config, numEval int) {
	fmt.Println("# Figure 13: training one session per k ... (slow)")
	res, err := experiments.Figure13(cfg, nil, nil, numEval)
	if err != nil {
		fail(err)
	}
	header("Figure 13a: precision vs. no. of retrieved objects, per training k")
	printSeries("retrieved", res.Precision...)
	header("Figure 13b: recall vs. no. of retrieved objects, per training k")
	printSeries("retrieved", res.Recall...)
}

func printFigure14(s *experiments.Session) {
	res, err := experiments.Figure14(s)
	if err != nil {
		fail(err)
	}
	header("Figure 14: per-category precision and recall")
	fmt.Printf("%-10s %8s %12s %12s %12s %12s %12s %12s\n",
		"category", "queries", "prec(seen)", "prec(FB)", "prec(def)", "rec(seen)", "rec(FB)", "rec(def)")
	for _, c := range res {
		fmt.Printf("%-10s %8d %12.4f %12.4f %12.4f %12.4f %12.4f %12.4f\n",
			c.Category, c.Queries, c.PrecSeen, c.PrecBypass, c.PrecDefault,
			c.RecallSeen, c.RecallBypass, c.RecallDefault)
	}
	fmt.Println()
}

func printFigure15(cfg experiments.Config) {
	fmt.Println("# Figure 15: savings sessions per k ... (slow)")
	res, err := experiments.Figure15(cfg, nil)
	if err != nil {
		fail(err)
	}
	header("Figure 15a: average saved feedback cycles vs. no. of queries")
	printSeries("queries", res.SavedCycles...)
	header("Figure 15b: average saved retrieved objects vs. no. of queries")
	printSeries("queries", res.SavedObjects...)
}

func printFigure16(s *experiments.Session) {
	res, err := experiments.Figure16(s)
	if err != nil {
		fail(err)
	}
	header("Figure 16: simplices traversed per query and tree depth")
	printSeries("queries", res.Traversed, res.Depth)
}
