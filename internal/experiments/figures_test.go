package experiments

import (
	"testing"
)

func TestFigure10Shapes(t *testing.T) {
	s := getSession(t)
	res, err := Figure10(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != s.Config.K {
		t.Errorf("K = %d", res.K)
	}
	for _, series := range []struct {
		name string
		len  int
	}{
		{"default", res.Precision.Default.Len()},
		{"bypass", res.Precision.Bypass.Len()},
		{"seen", res.Precision.AlreadySeen.Len()},
	} {
		if series.len == 0 {
			t.Errorf("%s series empty", series.name)
		}
	}
	// X axes aligned and increasing.
	for i := 1; i < res.Precision.Default.Len(); i++ {
		if res.Precision.Default.X[i] <= res.Precision.Default.X[i-1] {
			t.Fatal("X not increasing")
		}
	}
	// All precisions in [0,1].
	for _, ys := range [][]float64{res.Precision.Default.Y, res.Precision.Bypass.Y, res.Precision.AlreadySeen.Y} {
		for _, y := range ys {
			if y < 0 || y > 1 {
				t.Fatalf("precision %v out of range", y)
			}
		}
	}
	// Final-point ordering: AlreadySeen ≥ Default (the loop can only help).
	n := res.Precision.Default.Len() - 1
	if res.Precision.AlreadySeen.Y[n] < res.Precision.Default.Y[n] {
		t.Errorf("final AlreadySeen %v below Default %v", res.Precision.AlreadySeen.Y[n], res.Precision.Default.Y[n])
	}
	// Gains parallel the precision series.
	if res.GainFB.Len() == 0 || res.GainSeen.Len() == 0 {
		t.Error("gain series empty")
	}
	if res.GainSeen.Y[res.GainSeen.Len()-1] < 0 {
		t.Errorf("final AlreadySeen gain negative: %v", res.GainSeen.Y[res.GainSeen.Len()-1])
	}
}

func TestFigure10RequiresRecords(t *testing.T) {
	cfg := testConfig()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Figure10(s); err == nil {
		t.Error("empty session should error")
	}
	if _, err := Figure14(s); err == nil {
		t.Error("empty session should error for Figure14")
	}
	if _, err := Figure16(s); err == nil {
		t.Error("empty session should error for Figure16")
	}
	if _, err := Figure11(s, nil, 5); err == nil {
		t.Error("empty session should error for Figure11")
	}
}

func TestFigure11Shapes(t *testing.T) {
	s := getSession(t)
	ks := []int{5, 10, 20}
	res, err := Figure11(s, ks, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ks) != 3 {
		t.Fatalf("Ks = %v", res.Ks)
	}
	if res.Precision.Default.Len() != 3 || res.Recall.Bypass.Len() != 3 || res.PR.AlreadySeen.Len() != 3 {
		t.Fatal("series lengths wrong")
	}
	// Precision decreases (weakly) with k on average; recall increases.
	pd := res.Precision.Default.Y
	if pd[0] < pd[len(pd)-1]-0.05 {
		t.Errorf("default precision should fall with k: %v", pd)
	}
	rd := res.Recall.Default.Y
	if rd[len(rd)-1] < rd[0] {
		t.Errorf("default recall should rise with k: %v", rd)
	}
	// PR curve X equals recall Y.
	for i := range res.PR.Default.X {
		if res.PR.Default.X[i] != res.Recall.Default.Y[i] {
			t.Fatal("PR X should be recall")
		}
	}
}

func TestFigure12And13SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-session figure in -short mode")
	}
	cfg := testConfig()
	cfg.NumQueries = 20
	res12, err := Figure12(cfg, []int{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res12.Precision) != 2 || len(res12.Recall) != 2 {
		t.Fatalf("Figure12 series count: %d, %d", len(res12.Precision), len(res12.Recall))
	}
	if res12.Precision[0].Len() == 0 {
		t.Error("Figure12 precision series empty")
	}
	// Recall at larger k dominates recall at smaller k at the final point.
	n0 := res12.Recall[0].Len() - 1
	n1 := res12.Recall[1].Len() - 1
	if res12.Recall[1].Y[n1] < res12.Recall[0].Y[n0] {
		t.Errorf("recall(k=10)=%v below recall(k=5)=%v", res12.Recall[1].Y[n1], res12.Recall[0].Y[n0])
	}

	res13, err := Figure13(cfg, []int{5, 10}, []int{5, 15}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res13.Precision) != 2 || res13.Precision[0].Len() != 2 {
		t.Fatal("Figure13 shape wrong")
	}
	for _, series := range res13.Precision {
		for _, y := range series.Y {
			if y < 0 || y > 1 {
				t.Fatalf("precision %v out of range", y)
			}
		}
	}
}

func TestFigure14Shapes(t *testing.T) {
	s := getSession(t)
	res, err := Figure14(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no categories")
	}
	total := 0
	for _, c := range res {
		total += c.Queries
		if c.PrecDefault < 0 || c.PrecDefault > 1 || c.RecallSeen < 0 || c.RecallSeen > 1 {
			t.Errorf("%s: metrics out of range: %+v", c.Category, c)
		}
		if c.PrecSeen+1e-9 < c.PrecDefault-0.2 {
			t.Errorf("%s: AlreadySeen far below default", c.Category)
		}
	}
	if total != len(s.Records) {
		t.Errorf("category query counts sum to %d, want %d", total, len(s.Records))
	}
}

func TestFigure15SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-session figure in -short mode")
	}
	cfg := testConfig()
	cfg.NumQueries = 20
	res, err := Figure15(cfg, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SavedCycles) != 1 || len(res.SavedObjects) != 1 {
		t.Fatal("series count wrong")
	}
	sc := res.SavedCycles[0]
	so := res.SavedObjects[0]
	if sc.Len() == 0 || so.Len() != sc.Len() {
		t.Fatal("series lengths wrong")
	}
	for i := range sc.Y {
		want := sc.Y[i] * 5
		if so.Y[i] != want {
			t.Fatalf("SavedObjects[%d] = %v, want cycles×k = %v", i, so.Y[i], want)
		}
	}
}

func TestFigure16Shapes(t *testing.T) {
	s := getSession(t)
	res, err := Figure16(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traversed.Len() == 0 || res.Depth.Len() == 0 {
		t.Fatal("empty series")
	}
	// Depth is a non-decreasing step function; traversed stays below it.
	for i := 1; i < res.Depth.Len(); i++ {
		if res.Depth.Y[i] < res.Depth.Y[i-1] {
			t.Error("depth decreased")
		}
	}
	lastT := res.Traversed.Y[res.Traversed.Len()-1]
	lastD := res.Depth.Y[res.Depth.Len()-1]
	if lastT > lastD {
		t.Errorf("avg traversed %v exceeds depth %v", lastT, lastD)
	}
	if lastT < 1 {
		t.Errorf("avg traversed %v below 1", lastT)
	}
}

func TestFigure1Driver(t *testing.T) {
	s := getSession(t)
	idx := s.Records[0].ItemIndex
	res, err := Figure1(s, idx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DefaultTop) != 5 || len(res.BypassTop) != 5 {
		t.Fatalf("top lists: %d, %d", len(res.DefaultTop), len(res.BypassTop))
	}
	if res.QueryCategory == "" {
		t.Error("missing category")
	}
	countGood := func(lines []ResultLine) int {
		n := 0
		for _, l := range lines {
			if l.Good {
				n++
			}
		}
		return n
	}
	if countGood(res.DefaultTop) != res.GoodDefault || countGood(res.BypassTop) != res.GoodBypass {
		t.Error("good counts inconsistent with lines")
	}
	if _, err := Figure1(s, -1, 5); err == nil {
		t.Error("bad index should error")
	}
	// n defaulting.
	res2, err := Figure1(s, idx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.DefaultTop) != 5 {
		t.Errorf("default n = %d", len(res2.DefaultTop))
	}
}

func TestFigure9Driver(t *testing.T) {
	s := getSession(t)
	samples, err := Figure9(s, "Fish", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("samples = %d", len(samples))
	}
	for _, smp := range samples {
		if s.DS.Items[smp.ItemIndex].Category != "Fish" {
			t.Error("sample not from Fish")
		}
		if len(smp.DominantBins) == 0 {
			t.Error("no dominant bins")
		}
		if smp.Theme == "" {
			t.Error("missing theme")
		}
	}
	if _, err := Figure9(s, "NoSuchCategory", 3); err == nil {
		t.Error("missing category should error")
	}
}
