// Package imagegen synthesizes the categorized colour-image collection
// that substitutes for the IMSI MasterPhotos data set used in §5 of the
// paper (a commercial CD that is not available). See DESIGN.md §4 for the
// substitution argument.
//
// Every image belongs to a category and is rendered as an actual RGB
// raster by sampling pixel colours in HSV space from a category model:
//
//   - a *signature* — colour blobs present in every image of the category
//     (low-variance, discriminative bins: what re-weighting should find);
//   - a *theme* — one of several per-category palettes chosen per image
//     (high-variance bins: why plain Euclidean search struggles, mirroring
//     the paper's observation that e.g. "Fish" images range from blue
//     sharks to yellow and orange tropical fish);
//   - per-image jitter — small hue/saturation shifts so images within a
//     theme are similar but never identical.
//
// Noise categories share hues with the query categories (Ocean vs. Fish,
// Forest vs. TreeLeaf, Desert vs. Mammal, …) so that default-parameter
// retrieval is genuinely hard, as in the paper.
package imagegen

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/histogram"
)

// Blob is a Gaussian colour blob in HSV space.
type Blob struct {
	Hue    float64 // mean hue in degrees [0, 360)
	HueStd float64 // hue standard deviation in degrees
	Sat    float64 // mean saturation in [0, 1]
	SatStd float64 // saturation standard deviation
	Weight float64 // relative pixel mass (normalized within an image)
}

// Theme is a named palette: the per-image colour variation of a category.
type Theme struct {
	Name  string
	Blobs []Blob
}

// Category describes one image category.
type Category struct {
	Name      string
	Count     int
	Query     bool   // true for the 7 categories queries are sampled from
	Signature []Blob // blobs shared by every image of the category
	Themes    []Theme
}

// Config drives the generator.
type Config struct {
	Seed       int64
	ImageW     int
	ImageH     int
	Categories []Category
}

// Generated pairs a rendered image with its category label.
type Generated struct {
	ID       int
	Category string
	Theme    string
	Image    *histogram.Image
	Feature  []float64 // Image's histogram; only Generate fills it in
}

// Validate checks the configuration for structural errors.
func (c Config) Validate() error {
	if c.ImageW <= 0 || c.ImageH <= 0 {
		return fmt.Errorf("imagegen: invalid image size %dx%d", c.ImageW, c.ImageH)
	}
	if len(c.Categories) == 0 {
		return errors.New("imagegen: no categories")
	}
	for _, cat := range c.Categories {
		if cat.Name == "" {
			return errors.New("imagegen: category with empty name")
		}
		if cat.Count < 0 {
			return fmt.Errorf("imagegen: category %q has negative count", cat.Name)
		}
		if len(cat.Themes) == 0 {
			return fmt.Errorf("imagegen: category %q has no themes", cat.Name)
		}
		for _, th := range cat.Themes {
			if len(th.Blobs)+len(cat.Signature) == 0 {
				return fmt.Errorf("imagegen: category %q theme %q has no blobs", cat.Name, th.Name)
			}
			for _, b := range append(append([]Blob{}, cat.Signature...), th.Blobs...) {
				for _, x := range [...]float64{b.Hue, b.HueStd, b.Sat, b.SatStd, b.Weight} {
					if math.IsNaN(x) || math.IsInf(x, 0) {
						return fmt.Errorf("imagegen: category %q theme %q has a non-finite blob field %v", cat.Name, th.Name, x)
					}
				}
				if b.Weight <= 0 {
					return fmt.Errorf("imagegen: category %q theme %q has non-positive blob weight", cat.Name, th.Name)
				}
				if b.Sat < 0 || b.Sat > 1 {
					return fmt.Errorf("imagegen: category %q theme %q has saturation %v outside [0,1]", cat.Name, th.Name, b.Sat)
				}
			}
		}
	}
	return nil
}

// Count returns the number of images the configuration generates.
func (c Config) Count() int {
	n := 0
	for _, cat := range c.Categories {
		n += cat.Count
	}
	return n
}

// Renderer renders the images of one configuration into buffers it
// reuses: one RNG source, reseeded for every image, one raster and the blob
// scratch. Once warm, rendering allocates nothing. A Renderer is not safe
// for concurrent use; dataset.Build gives each worker its own.
type Renderer struct {
	cfg          Config
	rng          *source
	img          histogram.Image
	blobs        []Blob
	weights, cum []float64
}

// NewRenderer validates cfg and returns a Renderer for it.
func NewRenderer(cfg Config) (*Renderer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Renderer{
		cfg: cfg,
		rng: new(source),
		img: histogram.Image{W: cfg.ImageW, H: cfg.ImageH, Pix: make([]histogram.RGB, cfg.ImageW*cfg.ImageH)},
	}, nil
}

// Render renders image id; ids run through the categories in order, from
// 0 to Count()-1. The pixels depend on (Seed, id) alone — the RNG is
// reseeded from them for every image — so images can be rendered in any
// order, by any number of Renderers, with identical results. The returned
// Image is the Renderer's raster, overwritten by the next Render.
func (r *Renderer) Render(id int) (Generated, error) {
	g, err := r.draw(id)
	if err != nil {
		return Generated{}, err
	}
	r.paint(nil, histogram.Sampler{})
	g.Image = &r.img
	return g, nil
}

// Histogram writes image id's colour histogram under ex into dst, which
// must have length ex.Bins(), without rendering the raster. It samples
// every pixel as Render does and bins it with ex's Sampler, so dst holds
// the bits ex.ExtractInto writes for Render(id).Image. The returned
// Generated has no Image.
func (r *Renderer) Histogram(dst []float64, id int, ex histogram.Extractor) (Generated, error) {
	if err := ex.Reset(dst, len(r.img.Pix)); err != nil {
		return Generated{}, err
	}
	g, err := r.draw(id)
	if err != nil {
		return Generated{}, err
	}
	r.paint(dst, ex.Sampler())
	ex.Normalize(dst, len(r.img.Pix))
	return g, nil
}

// draw reseeds the RNG for image id, draws its theme and collects its
// signature and theme blobs for paint.
func (r *Renderer) draw(id int) (Generated, error) {
	first := 0
	for _, cat := range r.cfg.Categories {
		if id >= first && id < first+cat.Count {
			r.rng.Seed(imageSeed(r.cfg.Seed, id))
			theme := cat.Themes[r.rng.Intn(len(cat.Themes))]
			r.blobs = append(append(r.blobs[:0], cat.Signature...), theme.Blobs...)
			return Generated{ID: id, Category: cat.Name, Theme: theme.Name}, nil
		}
		first += cat.Count
	}
	return Generated{}, fmt.Errorf("imagegen: image %d outside the collection's %d", id, first)
}

// Generate renders the full collection deterministically from the seed
// and extracts each raster's histogram under ex with ExtractInto. Image i
// of the configuration always receives the same pixels, regardless of how
// many categories precede it. All rasters are held at once, each a copy
// of the Renderer's. It is the naive twin of dataset.Build, which bins
// the same samples without rasters (Histogram);
// TestBuildMatchesSerialGenerate holds the two to the same bits.
func Generate(cfg Config, ex histogram.Extractor) ([]Generated, error) {
	r, err := NewRenderer(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Generated, cfg.Count())
	for id := range out {
		g, err := r.Render(id)
		if err != nil {
			return nil, err
		}
		g.Image = &histogram.Image{W: g.Image.W, H: g.Image.H, Pix: slices.Clone(g.Image.Pix)}
		g.Feature = make([]float64, ex.Bins())
		if err := ex.ExtractInto(g.Feature, g.Image); err != nil {
			return nil, err
		}
		out[id] = g
	}
	return out, nil
}

// imageSeed derives a well-mixed per-image seed (splitmix64 finalizer).
func imageSeed(seed int64, id int) int64 {
	z := uint64(seed) + uint64(id)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// paint samples each pixel from the mixture of the blobs draw collected,
// after applying a per-image jitter to blob centers and masses. With a
// nil hist it writes the pixel to the raster; otherwise it adds the
// pixel to hist's bin under bin.
//
// The pixel loop draws on a local cursor, written back to the source
// once per image, and inlines the ziggurat's rectangle test: the only
// call left in a draw is normSlow, for the ≈ 2.5% of normals that miss
// the rectangle. The draws are math/rand's, in math/rand's order, so
// the stream and every pixel are what rand.New(rand.NewSource(seed))
// would give.
func (r *Renderer) paint(hist []float64, bin histogram.Sampler) {
	rng := r.rng

	// Per-image jitter: the palette drifts and the blob masses vary, so
	// two images of the same theme are similar but clearly distinct —
	// "within each category images largely differ as to color content"
	// (§5). The mass jitter is what keeps default Euclidean retrieval from
	// trivially clustering same-theme images.
	hueJitter := rng.NormFloat64() * 12
	satJitter := rng.NormFloat64() * 0.06
	r.weights = r.weights[:0]
	var totalW float64
	for _, b := range r.blobs {
		w := b.Weight * math.Exp(rng.NormFloat64()*0.7)
		r.weights = append(r.weights, w)
		totalW += w
	}
	r.cum = blobSums(r.cum[:0], r.weights, totalW)
	below := r.cum[:len(r.cum)-1]

	c := rng.cur
	for i := range r.img.Pix {
		var u, v float64
		c, u = c.float()
		b := &r.blobs[pickBlob(below, u)]
		var x int64
		c, x = c.step()
		hn, j, in := rectangle(x)
		if !in {
			c, hn = normSlow(c, j)
		}
		c, x = c.step()
		sn, j, in := rectangle(x)
		if !in {
			c, sn = normSlow(c, j)
		}
		c, v = c.float()
		hue := wrapHue(b.Hue + hueJitter + hn*b.HueStd)
		sat := clamp01(b.Sat + satJitter + sn*b.SatStd)
		val := 0.35 + 0.65*v // brightness is not a feature; keep it away from 0 so hue is well-defined
		if hist == nil {
			r.img.Pix[i] = histogram.FromHSV(hue, sat, val)
		} else {
			hist[bin.Bin(hue, sat, val)]++
		}
	}
	rng.cur = c
}

// blobSums appends to dst the running sums of weights/total that
// pickBlob reads. They never decrease, as each term is ≥ 0, until a
// weight overflows to +Inf and they turn NaN; from there blobSums repeats
// the last ordered sum (−∞ if there is none). That keeps every pick a
// search of the raw sums would make, and the sums non-decreasing.
func blobSums(dst, weights []float64, total float64) []float64 {
	acc, last := 0.0, math.Inf(-1)
	for _, w := range weights {
		acc += w / total
		if !math.IsNaN(acc) {
			last = acc
		}
		dst = append(dst, last)
	}
	return dst
}

// pickBlob returns the blob a pixel with draw u takes: the first i with
// u ≤ sums[i], or the last blob if there is none, where below is every
// sum but the last. As the sums never decrease, that is the count of
// sums in below that are < u, each the sign bit of s − u: a difference
// of floats is zero only between equal ones, and then +0. No branch
// depends on u.
func pickBlob(below []float64, u float64) int {
	k := 0
	for _, s := range below {
		k += int(math.Float64bits(s-u) >> 63)
	}
	return k
}

// wrapHue is math.Mod(h, 360) moved into [0, 360], bit for bit. Within a
// turn of [0, 360) — every hue a blob draws in practice — math.Mod is
// exact, so it is replaced by what it returns: h itself for |h| < 360,
// and h − 360 for 360 ≤ h < 720, exact by Sterbenz's lemma. The common
// case is small enough to inline; wrapHueOutside takes the rest.
func wrapHue(h float64) float64 {
	if h >= 0 && h < 360 {
		return h
	}
	return wrapHueOutside(h)
}

// wrapHueOutside is wrapHue for h outside [0, 360).
func wrapHueOutside(h float64) float64 {
	switch {
	case h > -360 && h < 0:
		return h + 360
	case h >= 360 && h < 720:
		return h - 360
	}
	h = math.Mod(h, 360)
	if h < 0 {
		h += 360
	}
	return h
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
