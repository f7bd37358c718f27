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

func TestNewImageValidation(t *testing.T) {
	if _, err := NewImage(0, 5); err == nil {
		t.Error("zero width should error")
	}
	if _, err := NewImage(5, -1); err == nil {
		t.Error("negative height should error")
	}
	im, err := NewImage(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	im.Set(1, 2, RGB{R: 1})
	if got := im.At(1, 2); got.R != 1 {
		t.Errorf("At = %+v", got)
	}
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
	im, _ := NewImage(4, 4)
	for i := range im.Pix {
		im.Pix[i] = RGB{R: 1}
	}
	raw := Extractor{HueBins: 8, SatBins: 4} // no smoothing
	hist, err := raw.Extract(im)
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
	im, _ := NewImage(4, 4)
	for i := range im.Pix {
		im.Pix[i] = RGB{R: 1}
	}
	hist, err := DefaultExtractor.Extract(im)
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
	if _, err := bad.Extract(im); err == nil {
		t.Error("negative smoothing should error")
	}
}

func TestExtractNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	im, _ := NewImage(8, 8)
	for i := range im.Pix {
		im.Pix[i] = RGB{R: rng.Float64(), G: rng.Float64(), B: rng.Float64()}
	}
	hist, err := DefaultExtractor.Extract(im)
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
	if _, err := DefaultExtractor.Extract(nil); err == nil {
		t.Error("nil image should error")
	}
	bad := Extractor{HueBins: 0, SatBins: 4}
	im, _ := NewImage(2, 2)
	if _, err := bad.Extract(im); err == nil {
		t.Error("invalid extractor should error")
	}
	if err := DefaultExtractor.ExtractInto(make([]float64, 31), im); err == nil {
		t.Error("a destination shorter than Bins() should error")
	}
}

func TestDropRestoreLast(t *testing.T) {
	hist := []float64{0.5, 0.3, 0.2}
	front := DropLast(hist)
	if len(front) != 2 || front[0] != 0.5 || front[1] != 0.3 {
		t.Fatalf("DropLast = %v", front)
	}
	back := RestoreLast(front)
	for i := range hist {
		if math.Abs(back[i]-hist[i]) > 1e-12 {
			t.Fatalf("RestoreLast = %v", back)
		}
	}
	// Front sums above 1 clamp the last bin at zero.
	over := RestoreLast([]float64{0.8, 0.4})
	if over[2] != 0 {
		t.Errorf("over-full restore = %v", over)
	}
	if DropLast(nil) != nil {
		t.Error("DropLast(nil) should be nil")
	}
}

func TestDropLastDoesNotAliasInput(t *testing.T) {
	hist := []float64{0.5, 0.5}
	front := DropLast(hist)
	front[0] = 9
	if hist[0] != 0.5 {
		t.Error("DropLast must copy")
	}
}
