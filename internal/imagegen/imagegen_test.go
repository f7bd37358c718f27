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
	imgs, err := Generate(cfg, histogram.DefaultExtractor)
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
	a, err := Generate(cfg, histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, histogram.DefaultExtractor)
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
		fresh, err := NewRenderer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Render(id)
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

// TestRenderAllocationBudget pins the per-image cost of both paths: on a
// warm Renderer, rendering an image and extracting its histogram into a
// row allocate nothing, and neither does Histogram, the streaming build's
// path.
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
	bin := func() {
		if _, err := r.Histogram(row, id%cfg.Count(), ex); err != nil {
			t.Fatal(err)
		}
		id += 7
	}
	if allocs := testing.AllocsPerRun(200, bin); allocs != 0 {
		t.Errorf("Histogram: %v allocations per image, want 0", allocs)
	}
}

// TestValidateRefusesNonFinite: a NaN or infinite blob field would render
// a silently wrong collection, so Validate refuses each one, in a
// signature blob and in a theme blob.
func TestValidateRefusesNonFinite(t *testing.T) {
	fields := map[string]func(*Blob) *float64{
		"Hue":    func(b *Blob) *float64 { return &b.Hue },
		"HueStd": func(b *Blob) *float64 { return &b.HueStd },
		"Sat":    func(b *Blob) *float64 { return &b.Sat },
		"SatStd": func(b *Blob) *float64 { return &b.SatStd },
		"Weight": func(b *Blob) *float64 { return &b.Weight },
	}
	for name, field := range fields {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, where := range []string{"signature", "theme"} {
				cfg := smallConfig()
				b := &cfg.Categories[0].Themes[1].Blobs[0]
				if where == "signature" {
					b = &cfg.Categories[0].Signature[0]
				}
				*field(b) = x
				if err := cfg.Validate(); err == nil {
					t.Errorf("%s %s = %v: Validate accepted it", where, name, x)
				}
			}
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	a, _ := Generate(cfg, histogram.DefaultExtractor)
	cfg.Seed = 2
	b, _ := Generate(cfg, histogram.DefaultExtractor)
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
	if _, err := Generate(cfg, histogram.DefaultExtractor); err == nil {
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
	ex := histogram.DefaultExtractor
	imgs, err := Generate(cfg, ex)
	if err != nil {
		t.Fatal(err)
	}
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
	var sig, themeA, themeB []float64
	for _, g := range imgs {
		h := g.Feature
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
	imgs, err := Generate(cfg, histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != cfg.Count() {
		t.Fatalf("generated %d, config says %d", len(imgs), cfg.Count())
	}
	// All histograms must be valid (normalized, finite).
	for _, g := range imgs[:10] {
		var sum float64
		for _, v := range g.Feature {
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

// BenchmarkRendererHistogram prices one image of the scale-1 collection
// through a warm Renderer's Histogram, the streaming build's per-image
// work: the reseed, the theme and jitter draws, and 576 sampled and
// binned pixels. Successive ops walk the collection's ids.
func BenchmarkRendererHistogram(b *testing.B) {
	cfg := IMSILike(1, 1)
	r, err := NewRenderer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ex := histogram.DefaultExtractor
	row := make([]float64, ex.Bins())
	for i := range cfg.Count() {
		if _, err := r.Histogram(row, i, ex); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Histogram(row, i%cfg.Count(), ex); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPickBlobMatchesSearch holds the branch-free pick to the search it
// replaced: the first blob i with u ≤ the i-th raw running sum, or the
// last blob if there is none. The weights are random, equal, zero and
// overflowing: a +Inf weight turns the raw sums NaN from its blob on,
// and a total that underflows to 0 makes every sum NaN. The draws are 0,
// the largest below 1, random ones, and each raw sum with its neighbours.
func TestPickBlobMatchesSearch(t *testing.T) {
	search := func(weights []float64, total, u float64) int {
		acc := 0.0
		for i, w := range weights {
			acc += w / total
			if u <= acc {
				return i
			}
		}
		return len(weights) - 1
	}
	inf := math.Inf(1)
	sets := [][]float64{{1}, {1, 1, 1}, {0.2, 0.5, 0.3}, {1, inf, 2}, {inf, 1}, {1, 2, inf}, {inf, inf}, {0, 0, 1}, {1e308, 1e308, 1}, {5e-324, 5e-324}, {0, 0}}
	rng := rand.New(rand.NewSource(3))
	for range 500 {
		w := make([]float64, 1+rng.Intn(8))
		for i := range w {
			w[i] = rng.ExpFloat64()
			if rng.Intn(10) == 0 {
				w[i] = inf
			}
		}
		sets = append(sets, w)
	}
	for _, w := range sets {
		total := 0.0
		for _, x := range w {
			total += x
		}
		sums := blobSums(nil, w, total)
		us := []float64{0, math.Nextafter(1, 0)}
		for range 50 {
			us = append(us, rng.Float64())
		}
		acc := 0.0
		for _, x := range w {
			acc += x / total
			us = append(us, acc, math.Nextafter(acc, 0), math.Nextafter(acc, 1))
		}
		for _, u := range us {
			if !(u >= 0 && u < 1) {
				continue
			}
			if got, want := pickBlob(sums[:len(sums)-1], u), search(w, total, u); got != want {
				t.Fatalf("weights %v, u = %v: pickBlob %d, search %d (sums %v)", w, u, got, want, sums)
			}
		}
	}
}
