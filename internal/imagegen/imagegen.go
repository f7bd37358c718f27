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

// Render renders image id of a validated configuration; ids run through
// the categories in order, from 0 to Count()-1. The pixels depend on
// (Seed, id) alone — every image draws from its own RNG — so images can
// be rendered in any order, or concurrently, with identical results.
func (c Config) Render(id int) (Generated, error) {
	first := 0
	for _, cat := range c.Categories {
		if id >= first && id < first+cat.Count {
			rng := rand.New(rand.NewSource(imageSeed(c.Seed, id)))
			theme := cat.Themes[rng.Intn(len(cat.Themes))]
			img, err := renderImage(rng, c.ImageW, c.ImageH, cat.Signature, theme.Blobs)
			if err != nil {
				return Generated{}, err
			}
			return Generated{ID: id, Category: cat.Name, Theme: theme.Name, Image: img}, nil
		}
		first += cat.Count
	}
	return Generated{}, fmt.Errorf("imagegen: image %d outside the collection's %d", id, first)
}

// Generate renders the full collection deterministically from the seed.
// Image i of the configuration always receives the same pixels, regardless
// of how many categories precede it. All rasters are held at once;
// dataset.Build streams Render instead.
func Generate(cfg Config) ([]Generated, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]Generated, cfg.Count())
	for id := range out {
		g, err := cfg.Render(id)
		if err != nil {
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

// renderImage samples each pixel from the mixture of signature and theme
// blobs, after applying a per-image jitter to blob centers and masses.
func renderImage(rng *rand.Rand, w, h int, signature, themeBlobs []Blob) (*histogram.Image, error) {
	blobs := make([]Blob, 0, len(signature)+len(themeBlobs))
	blobs = append(blobs, signature...)
	blobs = append(blobs, themeBlobs...)

	// Per-image jitter: the palette drifts and the blob masses vary, so
	// two images of the same theme are similar but clearly distinct —
	// "within each category images largely differ as to color content"
	// (§5). The mass jitter is what keeps default Euclidean retrieval from
	// trivially clustering same-theme images.
	hueJitter := rng.NormFloat64() * 12
	satJitter := rng.NormFloat64() * 0.06
	weights := make([]float64, len(blobs))
	var totalW float64
	for i, b := range blobs {
		weights[i] = b.Weight * math.Exp(rng.NormFloat64()*0.7)
		totalW += weights[i]
	}
	cum := make([]float64, len(blobs))
	acc := 0.0
	for i := range blobs {
		acc += weights[i] / totalW
		cum[i] = acc
	}

	img, err := histogram.NewImage(w, h)
	if err != nil {
		return nil, err
	}
	for i := range img.Pix {
		b := blobs[pickBlob(cum, rng.Float64())]
		hue := wrapHue(b.Hue + hueJitter + rng.NormFloat64()*b.HueStd)
		sat := clamp01(b.Sat + satJitter + rng.NormFloat64()*b.SatStd)
		val := 0.35 + 0.65*rng.Float64() // brightness is not a feature; keep it away from 0 so hue is well-defined
		img.Pix[i] = histogram.FromHSV(hue, sat, val)
	}
	return img, nil
}

func pickBlob(cum []float64, u float64) int {
	for i, c := range cum {
		if u <= c {
			return i
		}
	}
	return len(cum) - 1
}

func wrapHue(h float64) float64 {
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
