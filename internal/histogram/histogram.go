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

// NewImage allocates a zeroed (black) W×H image.
func NewImage(w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("histogram: invalid image size %dx%d", w, h)
	}
	return &Image{W: w, H: h, Pix: make([]RGB, w*h)}, nil
}

// At returns the pixel at (x, y).
func (im *Image) At(x, y int) RGB { return im.Pix[y*im.W+x] }

// Set assigns the pixel at (x, y).
func (im *Image) Set(x, y int, p RGB) { im.Pix[y*im.W+x] = p }

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
// features live in — and renders them to RGB rasters through this
// function, so the extractor exercises the full RGB→HSV→bins path.
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

// Extract computes the normalized colour histogram of an image. The bins
// sum to 1 ("the sum of the color bins is constant", Example 1 of the
// paper).
func (e Extractor) Extract(im *Image) ([]float64, error) {
	hist := make([]float64, max(e.Bins(), 0))
	if err := e.ExtractInto(hist, im); err != nil {
		return nil, err
	}
	return hist, nil
}

// ExtractInto writes the normalized colour histogram of im into dst,
// which must have length Bins(); it allocates nothing.
func (e Extractor) ExtractInto(dst []float64, im *Image) error {
	if e.HueBins <= 0 || e.SatBins <= 0 {
		return fmt.Errorf("histogram: invalid extractor %dx%d", e.HueBins, e.SatBins)
	}
	if e.Smoothing < 0 {
		return fmt.Errorf("histogram: negative smoothing %v", e.Smoothing)
	}
	if im == nil || len(im.Pix) == 0 {
		return errors.New("histogram: empty image")
	}
	if len(dst) != e.Bins() {
		return fmt.Errorf("histogram: destination has %d bins, want %d", len(dst), e.Bins())
	}
	for i := range dst {
		dst[i] = e.Smoothing
	}
	for _, p := range im.Pix {
		h, s, _ := HSV(p.R, p.G, p.B)
		dst[e.BinOf(h, s)]++
	}
	inv := 1 / (float64(len(im.Pix)) + e.Smoothing*float64(e.Bins()))
	for i := range dst {
		dst[i] *= inv
	}
	return nil
}

// DropLast removes the final bin of a normalized histogram, producing the
// query-domain representation of Example 1: because the bins sum to 1, the
// last bin is redundant and the reduced vector lives in the standard
// simplex of R^(n-1).
func DropLast(hist []float64) []float64 {
	if len(hist) == 0 {
		return nil
	}
	out := make([]float64, len(hist)-1)
	copy(out, hist[:len(hist)-1])
	return out
}

// RestoreLast inverts DropLast for a normalized histogram: the final bin
// is 1 − Σ(front bins), clamped at 0 against rounding.
func RestoreLast(front []float64) []float64 {
	out := make([]float64, len(front)+1)
	copy(out, front)
	var sum float64
	for _, x := range front {
		sum += x
	}
	last := 1 - sum
	if last < 0 {
		last = 0
	}
	out[len(front)] = last
	return out
}
