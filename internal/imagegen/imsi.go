package imagegen

import "math"

// IMSILike returns the configuration mirroring the paper's experimental
// setup (§5): the 7 query categories with the paper's exact cardinalities
// (Bird 318, Fish 129, Mammal 834, Blossom 189, TreeLeaf 575, Bridge 148,
// Monument 298 — 2,491 images) plus noise categories bringing the
// collection to roughly 10,000 images, "just used to add further noise to
// the retrieval process".
//
// scale multiplies every category cardinality (minimum 2 per category) so
// tests can run the identical distributional structure at a fraction of
// the size; scale = 1 reproduces the paper's collection.
func IMSILike(seed int64, scale float64) Config {
	n := func(count int) int {
		s := int(math.Round(float64(count) * scale))
		if s < 2 {
			s = 2
		}
		return s
	}

	// Shared palette building blocks. Hues in degrees: red 0, orange 30,
	// yellow 60, green 120, cyan 180, blue 240, magenta 300.
	sky := Blob{Hue: 215, HueStd: 10, Sat: 0.35, SatStd: 0.08, Weight: 0.30}
	water := Blob{Hue: 200, HueStd: 12, Sat: 0.55, SatStd: 0.10, Weight: 0.35}
	foliage := Blob{Hue: 110, HueStd: 12, Sat: 0.60, SatStd: 0.10, Weight: 0.30}
	stone := Blob{Hue: 40, HueStd: 15, Sat: 0.22, SatStd: 0.08, Weight: 0.45}
	fur := Blob{Hue: 32, HueStd: 10, Sat: 0.50, SatStd: 0.08, Weight: 0.40}
	gray := Blob{Hue: 0, HueStd: 60, Sat: 0.06, SatStd: 0.03, Weight: 0.30}

	queryCats := []Category{
		{
			Name: "Bird", Count: n(318), Query: true,
			Signature: []Blob{sky},
			Themes: []Theme{
				{Name: "blue", Blobs: []Blob{{Hue: 225, HueStd: 12, Sat: 0.65, SatStd: 0.08, Weight: 0.7}}},
				{Name: "red", Blobs: []Blob{{Hue: 355, HueStd: 8, Sat: 0.75, SatStd: 0.08, Weight: 0.7}}},
				{Name: "yellow", Blobs: []Blob{{Hue: 58, HueStd: 8, Sat: 0.70, SatStd: 0.08, Weight: 0.7}}},
				{Name: "brown", Blobs: []Blob{{Hue: 28, HueStd: 10, Sat: 0.45, SatStd: 0.08, Weight: 0.7}}},
			},
		},
		{
			// Mirrors the paper's Figure 9 commentary: "only the 2nd image
			// (shark) has a dominant blue color, whereas others have strong
			// components of yellow, gray, and orange".
			Name: "Fish", Count: n(129), Query: true,
			Signature: []Blob{water},
			Themes: []Theme{
				{Name: "shark", Blobs: []Blob{{Hue: 230, HueStd: 10, Sat: 0.50, SatStd: 0.08, Weight: 0.65}}},
				{Name: "tropical", Blobs: []Blob{{Hue: 55, HueStd: 8, Sat: 0.85, SatStd: 0.06, Weight: 0.65}}},
				{Name: "gray", Blobs: []Blob{{Hue: 0, HueStd: 60, Sat: 0.07, SatStd: 0.03, Weight: 0.65}}},
				{Name: "orange", Blobs: []Blob{{Hue: 25, HueStd: 8, Sat: 0.85, SatStd: 0.06, Weight: 0.65}}},
			},
		},
		{
			Name: "Mammal", Count: n(834), Query: true,
			Signature: []Blob{fur},
			Themes: []Theme{
				{Name: "savanna", Blobs: []Blob{{Hue: 48, HueStd: 10, Sat: 0.38, SatStd: 0.08, Weight: 0.6}}},
				{Name: "forest", Blobs: []Blob{{Hue: 115, HueStd: 12, Sat: 0.35, SatStd: 0.08, Weight: 0.6}}},
				{Name: "snow", Blobs: []Blob{{Hue: 210, HueStd: 20, Sat: 0.05, SatStd: 0.03, Weight: 0.6}}},
				{Name: "dusk", Blobs: []Blob{{Hue: 20, HueStd: 10, Sat: 0.55, SatStd: 0.08, Weight: 0.6}}},
			},
		},
		{
			Name: "Blossom", Count: n(189), Query: true,
			Signature: []Blob{foliage},
			Themes: []Theme{
				{Name: "pink", Blobs: []Blob{{Hue: 330, HueStd: 8, Sat: 0.60, SatStd: 0.08, Weight: 0.7}}},
				{Name: "red", Blobs: []Blob{{Hue: 5, HueStd: 7, Sat: 0.80, SatStd: 0.06, Weight: 0.7}}},
				{Name: "yellow", Blobs: []Blob{{Hue: 55, HueStd: 7, Sat: 0.85, SatStd: 0.06, Weight: 0.7}}},
				{Name: "white", Blobs: []Blob{{Hue: 0, HueStd: 60, Sat: 0.05, SatStd: 0.03, Weight: 0.7}}},
			},
		},
		{
			// Colour-coherent category: feedback has little to improve, as
			// the paper observes for TreeLeaf in Figure 14.
			Name: "TreeLeaf", Count: n(575), Query: true,
			Signature: []Blob{{Hue: 110, HueStd: 10, Sat: 0.70, SatStd: 0.08, Weight: 0.6}},
			Themes: []Theme{
				{Name: "light", Blobs: []Blob{{Hue: 90, HueStd: 8, Sat: 0.60, SatStd: 0.08, Weight: 0.4}}},
				{Name: "dark", Blobs: []Blob{{Hue: 140, HueStd: 8, Sat: 0.80, SatStd: 0.06, Weight: 0.4}}},
				{Name: "autumn", Blobs: []Blob{{Hue: 35, HueStd: 10, Sat: 0.80, SatStd: 0.06, Weight: 0.4}}},
			},
		},
		{
			Name: "Bridge", Count: n(148), Query: true,
			Signature: []Blob{gray, {Hue: 215, HueStd: 10, Sat: 0.35, SatStd: 0.08, Weight: 0.25}},
			Themes: []Theme{
				{Name: "sunset", Blobs: []Blob{{Hue: 20, HueStd: 10, Sat: 0.60, SatStd: 0.08, Weight: 0.45}}},
				{Name: "day", Blobs: []Blob{{Hue: 210, HueStd: 10, Sat: 0.50, SatStd: 0.08, Weight: 0.45}}},
				{Name: "night", Blobs: []Blob{{Hue: 240, HueStd: 12, Sat: 0.20, SatStd: 0.06, Weight: 0.45}}},
			},
		},
		{
			Name: "Monument", Count: n(298), Query: true,
			Signature: []Blob{stone},
			Themes: []Theme{
				{Name: "day", Blobs: []Blob{{Hue: 210, HueStd: 10, Sat: 0.45, SatStd: 0.08, Weight: 0.55}}},
				{Name: "sunset", Blobs: []Blob{{Hue: 15, HueStd: 10, Sat: 0.65, SatStd: 0.08, Weight: 0.55}}},
				{Name: "overcast", Blobs: []Blob{{Hue: 0, HueStd: 60, Sat: 0.07, SatStd: 0.03, Weight: 0.55}}},
			},
		},
	}

	// Noise categories overlap the query palettes so colour search alone
	// cannot separate categories.
	noiseCats := []Category{
		{
			Name: "Sunset", Count: n(600),
			Themes: []Theme{
				{Name: "deep", Blobs: []Blob{{Hue: 18, HueStd: 8, Sat: 0.75, SatStd: 0.08, Weight: 1}, {Hue: 300, HueStd: 15, Sat: 0.30, SatStd: 0.08, Weight: 0.3}}},
				{Name: "gold", Blobs: []Blob{{Hue: 45, HueStd: 8, Sat: 0.70, SatStd: 0.08, Weight: 1}}},
			},
		},
		{
			Name: "Ocean", Count: n(700),
			Themes: []Theme{
				{Name: "deep", Blobs: []Blob{{Hue: 215, HueStd: 10, Sat: 0.70, SatStd: 0.08, Weight: 1}}},
				{Name: "shallow", Blobs: []Blob{{Hue: 185, HueStd: 10, Sat: 0.55, SatStd: 0.08, Weight: 1}}},
			},
		},
		{
			Name: "Urban", Count: n(800),
			Themes: []Theme{
				{Name: "concrete", Blobs: []Blob{gray, {Hue: 220, HueStd: 15, Sat: 0.25, SatStd: 0.08, Weight: 0.5}}},
				{Name: "brick", Blobs: []Blob{{Hue: 10, HueStd: 10, Sat: 0.50, SatStd: 0.10, Weight: 0.6}, gray}},
			},
		},
		{
			Name: "Forest", Count: n(900),
			Themes: []Theme{
				{Name: "summer", Blobs: []Blob{{Hue: 118, HueStd: 12, Sat: 0.65, SatStd: 0.10, Weight: 1}}},
				{Name: "pine", Blobs: []Blob{{Hue: 150, HueStd: 10, Sat: 0.55, SatStd: 0.08, Weight: 1}}},
			},
		},
		{
			Name: "Desert", Count: n(700),
			Themes: []Theme{
				{Name: "dune", Blobs: []Blob{{Hue: 40, HueStd: 8, Sat: 0.40, SatStd: 0.08, Weight: 1}}},
				{Name: "rock", Blobs: []Blob{{Hue: 25, HueStd: 10, Sat: 0.45, SatStd: 0.10, Weight: 1}}},
			},
		},
		{
			Name: "Sky", Count: n(800),
			Themes: []Theme{
				{Name: "clear", Blobs: []Blob{{Hue: 212, HueStd: 8, Sat: 0.40, SatStd: 0.08, Weight: 1}}},
				{Name: "cloud", Blobs: []Blob{{Hue: 210, HueStd: 10, Sat: 0.12, SatStd: 0.05, Weight: 1}}},
			},
		},
		{
			Name: "Abstract", Count: n(1000),
			Themes: []Theme{
				{Name: "warm", Blobs: []Blob{{Hue: 0, HueStd: 80, Sat: 0.60, SatStd: 0.20, Weight: 1}}},
				{Name: "cool", Blobs: []Blob{{Hue: 200, HueStd: 80, Sat: 0.60, SatStd: 0.20, Weight: 1}}},
				{Name: "pastel", Blobs: []Blob{{Hue: 180, HueStd: 120, Sat: 0.25, SatStd: 0.10, Weight: 1}}},
			},
		},
		{
			Name: "Food", Count: n(500),
			Themes: []Theme{
				{Name: "fruit", Blobs: []Blob{{Hue: 35, HueStd: 20, Sat: 0.80, SatStd: 0.08, Weight: 1}}},
				{Name: "greens", Blobs: []Blob{{Hue: 100, HueStd: 15, Sat: 0.60, SatStd: 0.10, Weight: 1}}},
			},
		},
		{
			Name: "People", Count: n(600),
			Themes: []Theme{
				{Name: "portrait", Blobs: []Blob{{Hue: 25, HueStd: 6, Sat: 0.35, SatStd: 0.08, Weight: 0.7}, gray}},
				{Name: "crowd", Blobs: []Blob{{Hue: 25, HueStd: 8, Sat: 0.30, SatStd: 0.10, Weight: 0.5}, {Hue: 220, HueStd: 40, Sat: 0.40, SatStd: 0.15, Weight: 0.5}}},
			},
		},
		{
			Name: "Garden", Count: n(700),
			Themes: []Theme{
				{Name: "bloom", Blobs: []Blob{foliage, {Hue: 325, HueStd: 12, Sat: 0.55, SatStd: 0.10, Weight: 0.5}}},
				{Name: "lawn", Blobs: []Blob{{Hue: 105, HueStd: 10, Sat: 0.55, SatStd: 0.10, Weight: 1}}},
			},
		},
	}

	return Config{
		Seed:       seed,
		ImageW:     24,
		ImageH:     24,
		Categories: append(queryCats, noiseCats...),
	}
}

// QueryCategoryNames returns the names of the categories marked Query in
// the configuration, in order.
func (c Config) QueryCategoryNames() []string {
	var out []string
	for _, cat := range c.Categories {
		if cat.Query {
			out = append(out, cat.Name)
		}
	}
	return out
}
