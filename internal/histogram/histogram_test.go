package histogram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHSVPrimaries(t *testing.T) {
	cases := []struct {
		r, g, b    string
		rr, gg, bb float64
		h, s, v    float64
	}{
		{"red", "", "", 1, 0, 0, 0, 1, 1},
		{"green", "", "", 0, 1, 0, 120, 1, 1},
		{"blue", "", "", 0, 0, 1, 240, 1, 1},
		{"white", "", "", 1, 1, 1, 0, 0, 1},
		{"black", "", "", 0, 0, 0, 0, 0, 0},
		{"yellow", "", "", 1, 1, 0, 60, 1, 1},
		{"cyan", "", "", 0, 1, 1, 180, 1, 1},
		{"magenta", "", "", 1, 0, 1, 300, 1, 1},
		{"gray", "", "", 0.5, 0.5, 0.5, 0, 0, 0.5},
	}
	for _, c := range cases {
		h, s, v := HSV(c.rr, c.gg, c.bb)
		if math.Abs(h-c.h) > 1e-9 || math.Abs(s-c.s) > 1e-9 || math.Abs(v-c.v) > 1e-9 {
			t.Errorf("%s: HSV = (%v,%v,%v), want (%v,%v,%v)", c.r, h, s, v, c.h, c.s, c.v)
		}
	}
}

func TestHSVRangeQuick(t *testing.T) {
	f := func(r, g, b float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0.5
			}
			return math.Abs(math.Mod(x, 1))
		}
		h, s, v := HSV(clamp(r), clamp(g), clamp(b))
		return h >= 0 && h < 360 && s >= 0 && s <= 1 && v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		h := rng.Float64() * 360
		s := rng.Float64()
		v := rng.Float64()
		p := FromHSV(h, s, v)
		h2, s2, v2 := HSV(p.R, p.G, p.B)
		if math.Abs(v2-v) > 1e-9 {
			t.Fatalf("v mismatch: %v vs %v", v2, v)
		}
		// Saturation and hue are only defined when chroma is nonzero.
		if v > 1e-9 {
			if math.Abs(s2-s) > 1e-9 {
				t.Fatalf("s mismatch: %v vs %v (h=%v v=%v)", s2, s, h, v)
			}
			if s > 1e-9 {
				dh := math.Abs(h2 - h)
				if dh > 180 {
					dh = 360 - dh
				}
				if dh > 1e-7 {
					t.Fatalf("h mismatch: %v vs %v", h2, h)
				}
			}
		}
	}
}

// TestModMatchesMathMod holds mod's shortcuts to math.Mod bit for bit at
// the two moduli FromHSV uses, on both sides of every shortcut's edge.
func TestModMatchesMathMod(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, y := range []float64{2, 360} {
		ins := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300}
		for _, edge := range []float64{y, 2 * y, 3 * y, -y} {
			ins = append(ins, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
		}
		for range 20000 {
			ins = append(ins, (rng.Float64()*2-1)*1000)
		}
		for _, x := range ins {
			if got, want := mod(x, y), math.Mod(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("mod(%v, %v) = %v (%#x), math.Mod gives %v (%#x)", x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestHSVRedSectorUnwrapped checks that dropping the red sector's mod 6
// changes nothing: on random pixels, and on pixels whose green and blue
// sit at the extremes, HSV equals the hexcone formula with math.Mod.
func TestHSVRedSectorUnwrapped(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100000; trial++ {
		r, g, b := rng.Float64(), rng.Float64(), rng.Float64()
		switch trial % 3 {
		case 1:
			g, b = r, 0 // g == max: ties go to the red sector
		case 2:
			r, g, b = 1, math.Nextafter(1, 0), rng.Float64()*1e-300
		}
		hi, lo := max(r, g, b), min(r, g, b)
		if hi != r || hi == lo {
			continue
		}
		want := 60 * math.Mod((g-b)/(hi-lo), 6)
		if want < 0 {
			want += 360
		}
		if h, _, _ := HSV(r, g, b); math.Float64bits(h) != math.Float64bits(want) {
			t.Fatalf("HSV(%v, %v, %v) hue %v, math.Mod form %v", r, g, b, h, want)
		}
	}
}

func TestFromHSVNegativeAndLargeHue(t *testing.T) {
	a := FromHSV(-90, 1, 1)
	b := FromHSV(270, 1, 1)
	if math.Abs(a.R-b.R) > 1e-12 || math.Abs(a.G-b.G) > 1e-12 || math.Abs(a.B-b.B) > 1e-12 {
		t.Error("hue should wrap")
	}
	c := FromHSV(360+120, 1, 1)
	d := FromHSV(120, 1, 1)
	if math.Abs(c.G-d.G) > 1e-12 {
		t.Error("hue > 360 should wrap")
	}
}

// newImage returns a black w×h image.
func newImage(w, h int) *Image { return &Image{W: w, H: h, Pix: make([]RGB, w*h)} }

// extract returns e's histogram of im in a fresh slice.
func extract(e Extractor, im *Image) ([]float64, error) {
	hist := make([]float64, e.Bins())
	return hist, e.ExtractInto(hist, im)
}

func TestBinOfLayout(t *testing.T) {
	e := DefaultExtractor
	if e.Bins() != 32 {
		t.Fatalf("Bins = %d", e.Bins())
	}
	// Hue 0, saturation 0 is bin 0.
	if got := e.BinOf(0, 0); got != 0 {
		t.Errorf("BinOf(0,0) = %d", got)
	}
	// Last hue range, last sat range is bin 31.
	if got := e.BinOf(359.9, 0.99); got != 31 {
		t.Errorf("BinOf(359.9,0.99) = %d", got)
	}
	// Boundary values clamp instead of overflowing.
	if got := e.BinOf(360, 1); got != 31 {
		t.Errorf("BinOf(360,1) = %d", got)
	}
	if got := e.BinOf(-1, -0.1); got != 0 {
		t.Errorf("BinOf(-1,-0.1) = %d", got)
	}
	// Hue 90° (range 2 of 8), saturation 0.6 (range 2 of 4): bin 2*4+2.
	if got := e.BinOf(90, 0.6); got != 10 {
		t.Errorf("BinOf(90,0.6) = %d", got)
	}
}

func TestExtractUniformRed(t *testing.T) {
	im := newImage(4, 4)
	for i := range im.Pix {
		im.Pix[i] = RGB{R: 1}
	}
	raw := Extractor{HueBins: 8, SatBins: 4} // no smoothing
	hist, err := extract(raw, im)
	if err != nil {
		t.Fatal(err)
	}
	// Pure red: hue 0 (bin range 0), saturation 1 (clamped to last range).
	wantBin := raw.BinOf(0, 1)
	for i, v := range hist {
		if i == wantBin {
			if math.Abs(v-1) > 1e-12 {
				t.Errorf("bin %d = %v, want 1", i, v)
			}
		} else if v != 0 {
			t.Errorf("bin %d = %v, want 0", i, v)
		}
	}
}

func TestExtractSmoothingKeepsBinsPositive(t *testing.T) {
	im := newImage(4, 4)
	for i := range im.Pix {
		im.Pix[i] = RGB{R: 1}
	}
	hist, err := extract(DefaultExtractor, im)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i, v := range hist {
		if v <= 0 {
			t.Errorf("smoothed bin %d = %v, want > 0", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("smoothed histogram sum = %v", sum)
	}
	// The dominant bin still carries most of the mass.
	wantBin := DefaultExtractor.BinOf(0, 1)
	if hist[wantBin] < 0.2 {
		t.Errorf("dominant bin mass = %v", hist[wantBin])
	}
	bad := Extractor{HueBins: 8, SatBins: 4, Smoothing: -1}
	if _, err := extract(bad, im); err == nil {
		t.Error("negative smoothing should error")
	}
}

func TestExtractNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	im := newImage(8, 8)
	for i := range im.Pix {
		im.Pix[i] = RGB{R: rng.Float64(), G: rng.Float64(), B: rng.Float64()}
	}
	hist, err := extract(DefaultExtractor, im)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range hist {
		if v < 0 {
			t.Fatal("negative bin")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("histogram sum = %v", sum)
	}
}

func TestExtractErrors(t *testing.T) {
	if _, err := extract(DefaultExtractor, nil); err == nil {
		t.Error("nil image should error")
	}
	bad := Extractor{HueBins: 0, SatBins: 4}
	im := newImage(2, 2)
	if _, err := extract(bad, im); err == nil {
		t.Error("invalid extractor should error")
	}
	if err := DefaultExtractor.ExtractInto(make([]float64, 31), im); err == nil {
		t.Error("a destination shorter than Bins() should error")
	}
}

// TestCertifiedBinIsRoundTrip holds Sampler.Bin's certificate to the round
// trip it skips: wherever Bin certifies a bin, BinOf of
// HSV(FromHSV(h, s, v)) must be that bin. The points are seeded random
// pixels, random pixels close to a hue edge at low saturation, and, for
// three bin layouts, the bin edges of either channel ± 1…8 ulps and hues
// just outside certMargin of each edge, the hue wrap, saturations at 0,
// the smallest subnormal, far below minSat, minSat ± 1 ulp and 1,
// brightnesses at the edges of the certified range, and NaN in each
// channel.
func TestCertifiedBinIsRoundTrip(t *testing.T) {
	// near returns x and the 8 floats on either side of it.
	near := func(x float64) []float64 {
		out := []float64{x}
		for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
			y := x
			for range 8 {
				y = math.Nextafter(y, dir)
				out = append(out, y)
			}
		}
		return out
	}
	for _, e := range []Extractor{DefaultExtractor, {HueBins: 7, SatBins: 3}, {HueBins: maxCertBins, SatBins: maxCertBins}} {
		// At most 9 edges per channel keep the grid small at 360 bins.
		// Hues just outside the margin, with saturations far below
		// minSat, are where the round trip strays furthest past it.
		degPerBin := 360 / float64(e.HueBins)
		var hues, sats []float64
		for k := 0; k <= e.HueBins; k += max(1, e.HueBins/8) {
			hues = append(hues, near(float64(k)*degPerBin)...)
			for _, c := range []float64{-64, -8, -2, -1.01, 1.01, 2, 8, 64} {
				hues = append(hues, (float64(k)+c*certMargin)*degPerBin)
			}
		}
		for k := 0; k <= e.SatBins; k += max(1, e.SatBins/8) {
			sats = append(sats, near(float64(k)/float64(e.SatBins))...)
		}
		hues = append(hues, 10, 100, 200, 350, math.Nextafter(360, 0), math.NaN())
		sats = append(sats, 0.1, 0.6, 0x1p-1074, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4,
			math.Nextafter(minSat, 0), minSat, math.Nextafter(minSat, 1), math.NaN())
		vals := []float64{0, 0x1p-1074, math.Nextafter(minVal, 0), minVal, 0.35, 0.7, 1, math.Nextafter(1, 2), math.NaN()}

		bins := e.Sampler()
		certified, points := 0, 0
		check := func(h, s, v float64) {
			points++
			want := e.roundTripBin(h, s, v)
			trips := bins.trips
			if got := bins.Bin(h, s, v); got != want {
				t.Fatalf("%dx%d bins: Bin(%v, %v, %v) = %d, round trip %d", e.HueBins, e.SatBins, h, s, v, got, want)
			}
			if bins.trips == trips {
				certified++
			}
		}
		for _, h := range hues {
			for _, s := range sats {
				for _, v := range vals {
					check(h, s, v)
				}
			}
		}
		rng := rand.New(rand.NewSource(int64(e.HueBins)))
		random := 0
		for range 20_000 {
			s := rng.Float64()
			if rng.Intn(4) == 0 {
				s *= 0.01
			}
			before := certified
			check(rng.Float64()*360, s, 0.35+0.65*rng.Float64())
			random += certified - before
			// A pixel within 100 margins of a hue edge, at a saturation
			// between 10⁻¹⁰ and 1.
			edge := float64(rng.Intn(e.HueBins + 1))
			check((edge+(2*rng.Float64()-1)*100*certMargin)*degPerBin, math.Pow(10, -10*rng.Float64()), 0.35+0.65*rng.Float64())
		}
		// The certificate must cover nearly every ordinary pixel, or the
		// test above checks little and Bin saves little.
		if random < 19_000 {
			t.Errorf("%dx%d bins: %d of 20,000 random pixels certified", e.HueBins, e.SatBins, random)
		}
		t.Logf("%dx%d bins: %d of %d points certified", e.HueBins, e.SatBins, certified, points)
	}
}
