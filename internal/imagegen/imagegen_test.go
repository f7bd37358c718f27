package imagegen

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/histogram"
)

func smallConfig() Config {
	return Config{
		Seed:   1,
		ImageW: 16,
		ImageH: 16,
		Categories: []Category{
			{
				Name: "A", Count: 5, Query: true,
				Signature: []Blob{{Hue: 100, HueStd: 5, Sat: 0.6, SatStd: 0.05, Weight: 0.5}},
				Themes: []Theme{
					{Name: "t1", Blobs: []Blob{{Hue: 200, HueStd: 5, Sat: 0.5, SatStd: 0.05, Weight: 0.5}}},
					{Name: "t2", Blobs: []Blob{{Hue: 300, HueStd: 5, Sat: 0.5, SatStd: 0.05, Weight: 0.5}}},
				},
			},
			{
				Name: "B", Count: 3,
				Themes: []Theme{
					{Name: "t", Blobs: []Blob{{Hue: 40, HueStd: 5, Sat: 0.8, SatStd: 0.05, Weight: 1}}},
				},
			},
		},
	}
}

func TestValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero width", func(c *Config) { c.ImageW = 0 }},
		{"no categories", func(c *Config) { c.Categories = nil }},
		{"empty name", func(c *Config) { c.Categories[0].Name = "" }},
		{"negative count", func(c *Config) { c.Categories[0].Count = -1 }},
		{"no themes", func(c *Config) { c.Categories[0].Themes = nil }},
		{"zero weight", func(c *Config) { c.Categories[0].Themes[0].Blobs[0].Weight = 0 }},
		{"bad saturation", func(c *Config) { c.Categories[0].Themes[0].Blobs[0].Sat = 1.5 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := smallConfig()
			c.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestGenerateCountsAndLabels(t *testing.T) {
	cfg := smallConfig()
	imgs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 8 {
		t.Fatalf("generated %d images, want 8", len(imgs))
	}
	counts := map[string]int{}
	for i, g := range imgs {
		if g.ID != i {
			t.Errorf("image %d has ID %d", i, g.ID)
		}
		if g.Image == nil || len(g.Image.Pix) != 256 {
			t.Errorf("image %d has wrong raster", i)
		}
		counts[g.Category]++
	}
	if counts["A"] != 5 || counts["B"] != 3 {
		t.Errorf("category counts = %v", counts)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for p := range a[i].Image.Pix {
			if a[i].Image.Pix[p] != b[i].Image.Pix[p] {
				t.Fatalf("image %d pixel %d differs between runs", i, p)
			}
		}
		if a[i].Theme != b[i].Theme {
			t.Fatalf("image %d theme differs", i)
		}
	}
}

// TestRendererReuse renders every image of a collection with one
// Renderer, in reverse order, and each with a fresh Renderer of its own
// (Config.Render): nothing a reused Renderer carries over from the
// previous image may reach the next one.
func TestRendererReuse(t *testing.T) {
	cfg := IMSILike(2, 0.02)
	r, err := NewRenderer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := cfg.Count() - 1; id >= 0; id-- {
		got, err := r.Render(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cfg.Render(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != want.ID || got.Category != want.Category || got.Theme != want.Theme {
			t.Fatalf("image %d: reused renderer labels %+v, fresh %+v", id, got, want)
		}
		for p := range want.Image.Pix {
			if got.Image.Pix[p] != want.Image.Pix[p] {
				t.Fatalf("image %d pixel %d: reused renderer %v, fresh %v", id, p, got.Image.Pix[p], want.Image.Pix[p])
			}
		}
	}
	if _, err := r.Render(cfg.Count()); err == nil {
		t.Error("rendering past the last image should error")
	}
	if _, err := NewRenderer(Config{}); err == nil {
		t.Error("NewRenderer should reject an invalid configuration")
	}
}

// TestRenderAllocationBudget pins the streaming build's per-image cost:
// on a warm Renderer, rendering an image and extracting its histogram
// into a row allocate nothing.
func TestRenderAllocationBudget(t *testing.T) {
	cfg := IMSILike(1, 0.05)
	r, err := NewRenderer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := histogram.DefaultExtractor
	row := make([]float64, ex.Bins())
	id := 0
	render := func() {
		g, err := r.Render(id % cfg.Count())
		if err != nil {
			t.Fatal(err)
		}
		if err := ex.ExtractInto(row, g.Image); err != nil {
			t.Fatal(err)
		}
		id += 7
	}
	// Warm up: every image once grows the blob scratch to the largest palette.
	for i := range cfg.Count() {
		if _, err := r.Render(i); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, render); allocs != 0 {
		t.Errorf("render + ExtractInto: %v allocations per image, want 0", allocs)
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	a, _ := Generate(cfg)
	cfg.Seed = 2
	b, _ := Generate(cfg)
	same := true
	for i := range a {
		for p := range a[i].Image.Pix {
			if a[i].Image.Pix[p] != b[i].Image.Pix[p] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical collections")
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.ImageW = -1
	if _, err := Generate(cfg); err == nil {
		t.Error("expected error for invalid config")
	}
}

func TestSignatureBinsAreLowVariance(t *testing.T) {
	// The defining property of the generator: within a category, signature
	// hue bins should have much lower relative spread across images than
	// theme bins. Generate a category with a strong signature and verify.
	cfg := Config{
		Seed: 7, ImageW: 24, ImageH: 24,
		Categories: []Category{{
			Name: "X", Count: 40, Query: true,
			Signature: []Blob{{Hue: 100, HueStd: 4, Sat: 0.6, SatStd: 0.04, Weight: 0.5}},
			Themes: []Theme{
				{Name: "a", Blobs: []Blob{{Hue: 220, HueStd: 4, Sat: 0.6, SatStd: 0.04, Weight: 0.5}}},
				{Name: "b", Blobs: []Blob{{Hue: 310, HueStd: 4, Sat: 0.6, SatStd: 0.04, Weight: 0.5}}},
			},
		}},
	}
	imgs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := histogram.DefaultExtractor
	// hueMass sums histogram mass over every (hue, sat) bin whose hue range
	// intersects [lo, hi] degrees — jitter spreads blobs across adjacent
	// bins, so region masses are the stable observable.
	hueMass := func(hist []float64, lo, hi float64) float64 {
		binWidth := 360.0 / float64(ex.HueBins)
		var m float64
		for hb := 0; hb < ex.HueBins; hb++ {
			bLo, bHi := float64(hb)*binWidth, float64(hb+1)*binWidth
			if bHi <= lo || bLo >= hi {
				continue
			}
			for sb := 0; sb < ex.SatBins; sb++ {
				m += hist[hb*ex.SatBins+sb]
			}
		}
		return m
	}
	var feats [][]float64
	for _, g := range imgs {
		h, err := ex.Extract(g.Image)
		if err != nil {
			t.Fatal(err)
		}
		feats = append(feats, h)
	}
	var sig, themeA, themeB []float64
	for _, h := range feats {
		sig = append(sig, hueMass(h, 60, 140))        // signature hue 100 ± drift
		themeA = append(themeA, hueMass(h, 180, 260)) // theme a hue 220
		themeB = append(themeB, hueMass(h, 270, 350)) // theme b hue 310
	}
	min := func(xs []float64) float64 {
		m := xs[0]
		for _, x := range xs {
			if x < m {
				m = x
			}
		}
		return m
	}
	max := func(xs []float64) float64 {
		m := xs[0]
		for _, x := range xs {
			if x > m {
				m = x
			}
		}
		return m
	}
	// The signature region is present in every image, while each theme
	// region essentially disappears in images of the other theme — the
	// bimodality that makes default Euclidean retrieval struggle within a
	// category (§5).
	if got := min(sig); got < 0.08 {
		t.Errorf("signature region min mass %v — signature missing from some image", got)
	}
	if got := min(themeA); got > 0.05 {
		t.Errorf("theme A region min %v — theme A present in every image", got)
	}
	if got := min(themeB); got > 0.05 {
		t.Errorf("theme B region min %v — theme B present in every image", got)
	}
	if max(themeA) < 0.2 || max(themeB) < 0.2 {
		t.Errorf("theme regions never dominant: maxA=%v maxB=%v", max(themeA), max(themeB))
	}
}

func TestIMSILikeCardinalities(t *testing.T) {
	cfg := IMSILike(1, 1)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"Bird": 318, "Fish": 129, "Mammal": 834, "Blossom": 189,
		"TreeLeaf": 575, "Bridge": 148, "Monument": 298,
	}
	queryTotal := 0
	for _, cat := range cfg.Categories {
		if w, ok := want[cat.Name]; ok {
			if cat.Count != w {
				t.Errorf("%s count = %d, want %d", cat.Name, cat.Count, w)
			}
			if !cat.Query {
				t.Errorf("%s should be a query category", cat.Name)
			}
			queryTotal += cat.Count
		} else if cat.Query {
			t.Errorf("unexpected query category %s", cat.Name)
		}
	}
	if queryTotal != 2491 {
		t.Errorf("query image total = %d, want 2491 (paper §5)", queryTotal)
	}
	total := cfg.Count()
	if total < 9000 || total > 11000 {
		t.Errorf("collection size = %d, want ≈10,000", total)
	}
	names := cfg.QueryCategoryNames()
	if len(names) != 7 {
		t.Errorf("query categories = %v", names)
	}
}

func TestIMSILikeScaling(t *testing.T) {
	cfg := IMSILike(1, 0.1)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, cat := range cfg.Categories {
		if cat.Count < 2 {
			t.Errorf("%s scaled below minimum: %d", cat.Name, cat.Count)
		}
	}
	full := IMSILike(1, 1).Count()
	small := cfg.Count()
	if small >= full/5 {
		t.Errorf("scale 0.1 should shrink the collection: %d vs %d", small, full)
	}
}

func TestIMSILikeGeneratesAtSmallScale(t *testing.T) {
	cfg := IMSILike(3, 0.02)
	imgs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != cfg.Count() {
		t.Fatalf("generated %d, config says %d", len(imgs), cfg.Count())
	}
	// All histograms must be valid (normalized, finite).
	ex := histogram.DefaultExtractor
	for _, g := range imgs[:10] {
		h, err := ex.Extract(g.Image)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range h {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("image %d histogram sum %v", g.ID, sum)
		}
	}
}

func TestImageSeedMixing(t *testing.T) {
	// Adjacent IDs must give well-separated seeds.
	seen := map[int64]bool{}
	for id := 0; id < 1000; id++ {
		s := imageSeed(42, id)
		if seen[s] {
			t.Fatalf("seed collision at id %d", id)
		}
		seen[s] = true
	}
}

func TestWrapHue(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{{-10, 350}, {370, 10}, {720, 0}, {0, 0}, {359, 359}} {
		if got := wrapHue(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("wrapHue(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// The shortcuts must return math.Mod's bits, plus 360 when negative.
	ref := func(h float64) float64 {
		h = math.Mod(h, 360)
		if h < 0 {
			h += 360
		}
		return h
	}
	rng := rand.New(rand.NewSource(1))
	ins := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300, -1e-300, 1e-300}
	for _, edge := range []float64{-1080, -720, -360, 0, 360, 720, 1080} {
		ins = append(ins, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
	}
	for range 20000 {
		ins = append(ins, (rng.Float64()*2-1)*1000)
	}
	for _, h := range ins {
		if got, want := wrapHue(h), ref(h); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("wrapHue(%v) = %v (%#x), math.Mod gives %v (%#x)", h, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestClamp01(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{{-0.5, 0}, {0.5, 0.5}, {1.5, 1}} {
		if got := clamp01(c.in); got != c.want {
			t.Errorf("clamp01(%v) = %v", c.in, got)
		}
	}
}
