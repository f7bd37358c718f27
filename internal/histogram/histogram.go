// Package histogram implements the feature extractor of §5 of the paper:
// images are converted to the HSV colour space and summarized by a 32-bin
// colour histogram obtained by dividing the hue channel into 8 ranges and
// the saturation channel into 4 ranges. Histograms are normalized so their
// bins sum to 1, which makes the query domain (after dropping the last
// bin) the standard simplex in R^31 — exactly the S0 of §4.1.
package histogram

import (
	"errors"
	"fmt"
	"math"
)

// RGB is a pixel with components in [0, 1].
type RGB struct {
	R, G, B float64
}

// Image is a dense raster of RGB pixels.
type Image struct {
	W, H int
	Pix  []RGB // row-major, len == W*H
}

// HSV converts an RGB triple (components in [0,1]) to HSV with
// h ∈ [0, 360), s ∈ [0, 1], v ∈ [0, 1], using the standard hexcone model.
func HSV(r, g, b float64) (h, s, v float64) {
	hi := max(r, g, b)
	lo := min(r, g, b)
	v = hi
	delta := hi - lo
	if hi > 0 {
		s = delta / hi
	}
	if delta == 0 {
		return 0, s, v
	}
	switch hi {
	case r:
		// The hexcone's mod 6 is the identity here: g and b lie in
		// [lo, hi], so |g−b| ≤ delta after rounding too, and the
		// quotient is in [−1, 1].
		h = 60 * ((g - b) / delta)
	case g:
		h = 60 * ((b-r)/delta + 2)
	default: // hi == b
		h = 60 * ((r-g)/delta + 4)
	}
	if h < 0 {
		h += 360
	}
	return h, s, v
}

// FromHSV converts HSV (h in degrees, s and v in [0,1]) back to RGB. The
// synthetic image generator samples colours in HSV — the space the paper's
// features live in — and renders its rasters through this function;
// Sampler.Bin bins such a pixel as ExtractInto would, mostly without it.
func FromHSV(h, s, v float64) RGB {
	h = mod(h, 360)
	if h < 0 {
		h += 360
	}
	c := v * s
	x := c * (1 - math.Abs(mod(h/60, 2)-1))
	m := v - c
	var r, g, b float64
	switch {
	case h < 60:
		r, g, b = c, x, 0
	case h < 120:
		r, g, b = x, c, 0
	case h < 180:
		r, g, b = 0, c, x
	case h < 240:
		r, g, b = 0, x, c
	case h < 300:
		r, g, b = x, 0, c
	default:
		r, g, b = c, 0, x
	}
	return RGB{R: r + m, G: g + m, B: b + m}
}

// mod returns math.Mod(x, y) bit for bit, for y > 0 with 2y finite. It
// skips math.Mod's Frexp/Ldexp loop for x in [0, 3y), which covers every
// hue the generator renders: there x, x − y and x − 2y are exact — the
// first two subtractions by Sterbenz's lemma, since y ≤ x ≤ 2y and
// 2y ≤ x ≤ 4y — and so is fmod, so the results agree. Rounding is
// monotone, so a difference that is not below y means x ≥ 2y (or 3y).
func mod(x, y float64) float64 {
	if x >= 0 && x < y {
		return x
	}
	if x >= y {
		if r := x - y; r < y {
			return r
		}
		if r := x - 2*y; r < y {
			return r
		}
	}
	return math.Mod(x, y)
}

// Extractor converts images into normalized HSV colour histograms.
type Extractor struct {
	HueBins int // number of hue ranges (paper: 8)
	SatBins int // number of saturation ranges (paper: 4)
	// Smoothing is the Laplace pseudocount added to every bin before
	// normalization. Exact-zero bins are hostile to the Simplex Tree's
	// barycentric descent (a zero coordinate pins the query to a facet and
	// dilutes interpolation weights), so a small pseudocount keeps every
	// histogram strictly inside the domain simplex.
	Smoothing float64
}

// DefaultExtractor is the paper's 32-bin configuration: 8 hue × 4
// saturation ranges, with one pseudocount of smoothing per bin.
var DefaultExtractor = Extractor{HueBins: 8, SatBins: 4, Smoothing: 1}

// Bins returns the total histogram dimensionality.
func (e Extractor) Bins() int { return e.HueBins * e.SatBins }

// BinOf returns the histogram bin index for an HSV colour.
func (e Extractor) BinOf(h, s float64) int {
	hb := int(h / 360 * float64(e.HueBins))
	if hb >= e.HueBins {
		hb = e.HueBins - 1
	}
	if hb < 0 {
		hb = 0
	}
	sb := int(s * float64(e.SatBins))
	if sb >= e.SatBins {
		sb = e.SatBins - 1
	}
	if sb < 0 {
		sb = 0
	}
	return hb*e.SatBins + sb
}

// The bound below lets Sampler.Bin skip the round trip. Write u = 2⁻⁵³.
// For 0 ≤ h < 360 and v ∈ [minVal, 1], FromHSV's arithmetic is exact up
// to the rounding of c = v·s, t = h/60 (at most 6u, which the triangle
// wave carries into x with at most 2u more), x, m = v − c and the sums.
// Each of these values is at most v and a normal number, so each error
// is relative: R, G and B land within η = 13u·v of the exact colour. The
// hexcone hue moves at most 60°/Δ per unit change of each channel, where
// Δ ≥ v·s − 2η is the chroma, and HSV's own rounding adds under 1,200u
// degrees. So for s ≥ minSat the round trip returns a hue within
// 180°·13u/minSat + 1,200u ≈ 2.6·10⁻¹⁰° of h, and a saturation within
// 41u of s. BinOf scales the hue by HueBins/360 and the saturation by
// SatBins, each with at most 2u of relative rounding; for at most
// maxCertBins bins per channel both scaled values move less than 3·10⁻¹⁰
// bins, inside certMargin. A pixel whose scaled hue and saturation are
// at least certMargin from every bin edge, 0 and HueBins or SatBins
// included, therefore keeps its bin through the round trip. For s = 0
// and a finite h, c = x = 0 exactly, so R = G = B = v, and HSV returns
// hue 0 and saturation 0.
const (
	minSat      = 1e-3
	minVal      = 0x1p-500 // far above the subnormals, where rounding stops being relative
	maxCertBins = 360
	certMargin  = 1e-9
)

// Sampler bins pixels sampled in HSV under one extractor, as
// ExtractInto bins the raster FromHSV renders from them. Extractor.Sampler
// makes the checks that depend on the extractor alone, so a loop over an
// image's pixels pays only the tests on the pixel.
type Sampler struct {
	e         Extractor
	hue, sat  float64 // e.HueBins and e.SatBins
	certifies bool    // both at most maxCertBins, so the bound below holds
	trips     int     // pixels Bin has binned through the round trip
}

// Sampler returns e's Sampler.
func (e Extractor) Sampler() Sampler {
	return Sampler{
		e:         e,
		hue:       float64(e.HueBins),
		sat:       float64(e.SatBins),
		certifies: e.HueBins <= maxCertBins && e.SatBins <= maxCertBins,
	}
}

// Bin returns the bin ExtractInto counts for the pixel FromHSV(h, s, v),
// that is e.BinOf of HSV(FromHSV(h, s, v)). It bins (h, s) directly
// where the bound above certifies that the round trip keeps that bin,
// and makes the round trip otherwise (NaN included). A grey pixel
// (s = 0) lands in BinOf(0, 0), which is bin 0 for every extractor.
func (p *Sampler) Bin(h, s, v float64) int {
	if p.certifies && v >= minVal && v <= 1 {
		hb := h / 360 * p.hue
		sb := s * p.sat
		if s >= minSat && inBin(hb, p.hue) && inBin(sb, p.sat) {
			return int(hb)*p.e.SatBins + int(sb)
		}
		if s == 0 && h >= 0 && h < 360 {
			return 0
		}
	}
	p.trips++
	return p.e.roundTripBin(h, s, v)
}

// roundTripBin is BinOf of HSV(FromHSV(h, s, v)).
func (e Extractor) roundTripBin(h, s, v float64) int {
	p := FromHSV(h, s, v)
	h, s, _ = HSV(p.R, p.G, p.B)
	return e.BinOf(h, s)
}

// inBin reports whether x lies in [0, n) at least certMargin from every
// integer. For x ≥ 1 the fraction is exact (Sterbenz's lemma).
func inBin(x, n float64) bool {
	if !(x >= 0 && x < n) {
		return false
	}
	f := x - float64(int(x))
	return f >= certMargin && f <= 1-certMargin
}

// Reset checks that dst can hold the histogram of an image of pixels
// pixels and sets every bin to the Smoothing pseudocount. The caller
// then adds 1 to dst[bin] for each pixel and calls Normalize;
// ExtractInto is that loop over a raster.
func (e Extractor) Reset(dst []float64, pixels int) error {
	if e.HueBins <= 0 || e.SatBins <= 0 {
		return fmt.Errorf("histogram: invalid extractor %dx%d", e.HueBins, e.SatBins)
	}
	if e.Smoothing < 0 {
		return fmt.Errorf("histogram: negative smoothing %v", e.Smoothing)
	}
	if pixels <= 0 {
		return errors.New("histogram: empty image")
	}
	if len(dst) != e.Bins() {
		return fmt.Errorf("histogram: destination has %d bins, want %d", len(dst), e.Bins())
	}
	for i := range dst {
		dst[i] = e.Smoothing
	}
	return nil
}

// Normalize divides the counts of an image of pixels pixels, begun by
// Reset, by their total so the bins sum to 1.
func (e Extractor) Normalize(dst []float64, pixels int) {
	inv := 1 / (float64(pixels) + e.Smoothing*float64(e.Bins()))
	for i := range dst {
		dst[i] *= inv
	}
}

// ExtractInto writes the normalized colour histogram of im into dst,
// which must have length Bins(); it allocates nothing.
func (e Extractor) ExtractInto(dst []float64, im *Image) error {
	if im == nil {
		return errors.New("histogram: empty image")
	}
	if err := e.Reset(dst, len(im.Pix)); err != nil {
		return err
	}
	for _, p := range im.Pix {
		h, s, _ := HSV(p.R, p.G, p.B)
		dst[e.BinOf(h, s)]++
	}
	e.Normalize(dst, len(im.Pix))
	return nil
}
