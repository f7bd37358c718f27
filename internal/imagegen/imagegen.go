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
	"math/rand"
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
// reuses: one RNG, reseeded for every image, one raster and the blob
// scratch. Once warm, rendering allocates nothing. A Renderer is not safe
// for concurrent use; dataset.Build gives each worker its own.
type Renderer struct {
	cfg          Config
	rng          *rand.Rand
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
		rng: rand.New(new(source)),
		img: histogram.Image{W: cfg.ImageW, H: cfg.ImageH, Pix: make([]histogram.RGB, cfg.ImageW*cfg.ImageH)},
	}, nil
}

// Render renders image id; ids run through the categories in order, from
// 0 to Count()-1. The pixels depend on (Seed, id) alone — the RNG is
// reseeded from them for every image — so images can be rendered in any
// order, by any number of Renderers, with identical results. The returned
// Image is the Renderer's raster, overwritten by the next Render.
func (r *Renderer) Render(id int) (Generated, error) {
	first := 0
	for _, cat := range r.cfg.Categories {
		if id >= first && id < first+cat.Count {
			r.rng.Seed(imageSeed(r.cfg.Seed, id))
			theme := cat.Themes[r.rng.Intn(len(cat.Themes))]
			r.paint(cat.Signature, theme.Blobs)
			return Generated{ID: id, Category: cat.Name, Theme: theme.Name, Image: &r.img}, nil
		}
		first += cat.Count
	}
	return Generated{}, fmt.Errorf("imagegen: image %d outside the collection's %d", id, first)
}

// Render renders image id of the configuration with a Renderer of its
// own, so the returned raster belongs to the caller.
func (c Config) Render(id int) (Generated, error) {
	r, err := NewRenderer(c)
	if err != nil {
		return Generated{}, err
	}
	return r.Render(id)
}

// Generate renders the full collection deterministically from the seed.
// Image i of the configuration always receives the same pixels, regardless
// of how many categories precede it. All rasters are held at once, each a
// copy of the Renderer's; dataset.Build streams instead.
func Generate(cfg Config) ([]Generated, error) {
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

// paint samples each pixel of the raster from the mixture of signature
// and theme blobs, after applying a per-image jitter to blob centers and
// masses.
func (r *Renderer) paint(signature, themeBlobs []Blob) {
	rng := r.rng
	r.blobs = append(append(r.blobs[:0], signature...), themeBlobs...)

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
	r.cum = r.cum[:0]
	acc := 0.0
	for _, w := range r.weights {
		acc += w / totalW
		r.cum = append(r.cum, acc)
	}

	for i := range r.img.Pix {
		b := r.blobs[pickBlob(r.cum, rng.Float64())]
		hue := wrapHue(b.Hue + hueJitter + rng.NormFloat64()*b.HueStd)
		sat := clamp01(b.Sat + satJitter + rng.NormFloat64()*b.SatStd)
		val := 0.35 + 0.65*rng.Float64() // brightness is not a feature; keep it away from 0 so hue is well-defined
		r.img.Pix[i] = histogram.FromHSV(hue, sat, val)
	}
}

func pickBlob(cum []float64, u float64) int {
	for i, c := range cum {
		if u <= c {
			return i
		}
	}
	return len(cum) - 1
}

// wrapHue is math.Mod(h, 360) moved into [0, 360], bit for bit. Within a
// turn of [0, 360) — every hue a blob draws in practice — math.Mod is
// exact, so it is replaced by what it returns: h itself for |h| < 360,
// and h − 360 for 360 ≤ h < 720, exact by Sterbenz's lemma.
func wrapHue(h float64) float64 {
	switch {
	case h >= 0 && h < 360:
		return h
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
