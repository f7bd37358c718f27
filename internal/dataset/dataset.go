// Package dataset assembles the experimental collection of §5: it renders
// the synthetic image collection, extracts 32-bin HSV histograms, records
// category labels, and provides the ground-truth relevance oracle ("for
// each query image, any image in the same category was considered a good
// match... regardless of their color similarity").
package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/store"
)

// Item is one database object: a feature vector with its category label.
type Item struct {
	ID       int
	Category string
	Theme    string
	Feature  []float64 // normalized colour histogram (sums to 1)
}

// Dataset is the collection the retrieval engine searches. Feature
// vectors live in one contiguous row-major store.Matrix — in the heap
// for generated collections, mapped for collections opened from FBMX
// files — and every Item.Feature is a view into it, so the scan kernels
// stream the whole collection as one slab wherever it resides.
type Dataset struct {
	Items      []Item
	Dim        int
	ByCategory map[string][]int // category → item indices
	QueryCats  []string         // categories queries are sampled from

	mat *store.Matrix
}

// Build generates the collection from cfg and extracts features with the
// given extractor. GOMAXPROCS workers each fill a contiguous row range in
// place with their own imagegen.Renderer, whose Histogram bins every
// sampled pixel straight into the row without rendering a raster, so
// workers share nothing and a worker's loop allocates nothing. An image's
// pixels depend only on (cfg.Seed, id), and Histogram's bins are the
// raster's, so the dataset is bit-identical to a serial
// imagegen.Generate → ExtractInto pass for any worker count, without
// ever holding the rasters (1.35 GB at scale 10). Nearly all of its time
// is the renderer's sampling: the reseed and, per pixel, four draws and
// a bin (DESIGN.md, "Build cost").
func Build(cfg imagegen.Config, ex histogram.Extractor) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Count()
	if n == 0 {
		return nil, errors.New("dataset: configuration generates no images")
	}
	mat, err := store.NewMatrix(n, ex.Bins())
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	d := &Dataset{
		Items:      make([]Item, n),
		Dim:        ex.Bins(),
		ByCategory: make(map[string][]int),
		QueryCats:  cfg.QueryCategoryNames(),
		mat:        mat,
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r, err := imagegen.NewRenderer(cfg)
			if err != nil {
				errs[w] = err
				return
			}
			for i := w * n / workers; i < (w+1)*n/workers; i++ {
				row := mat.Row(i)
				g, err := r.Histogram(row, i, ex)
				if err != nil {
					errs[w] = fmt.Errorf("dataset: image %d: %w", i, err)
					return
				}
				d.Items[i] = Item{ID: g.ID, Category: g.Category, Theme: g.Theme, Feature: row}
			}
		}(w)
	}
	wg.Wait()
	// Ranges ascend with w, so the first error is the lowest failing id's.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, it := range d.Items {
		d.ByCategory[it.Category] = append(d.ByCategory[it.Category], i)
	}
	return d, nil
}

// FromItems builds a dataset directly from items, for tests and custom
// collections. Every feature must have the same length.
func FromItems(items []Item, queryCats []string) (*Dataset, error) {
	if len(items) == 0 {
		return nil, errors.New("dataset: no items")
	}
	dim := len(items[0].Feature)
	d := &Dataset{Dim: dim, ByCategory: make(map[string][]int), QueryCats: queryCats}
	mat, err := store.NewMatrix(len(items), dim)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	d.mat = mat
	for i, it := range items {
		if len(it.Feature) != dim {
			return nil, fmt.Errorf("dataset: item %d has dimension %d, want %d", i, len(it.Feature), dim)
		}
		copy(mat.Row(i), it.Feature)
		it.Feature = mat.Row(i)
		d.ByCategory[it.Category] = append(d.ByCategory[it.Category], i)
		d.Items = append(d.Items, it)
	}
	return d, nil
}

// FromMatrix builds a dataset directly over an existing feature matrix
// — the open path for FBMX collection files, whose rows are served in
// place (mapped) rather than copied — with each row's category and
// theme, and the query categories, taken from the labels stored beside
// the rows.
func FromMatrix(m *store.Matrix, l store.Labels) (*Dataset, error) {
	n := m.Len()
	if len(l.Category) != n || len(l.Theme) != n {
		return nil, fmt.Errorf("dataset: %d categories and %d themes for %d rows", len(l.Category), len(l.Theme), n)
	}
	d := &Dataset{Items: make([]Item, n), Dim: m.Dim(), ByCategory: make(map[string][]int), QueryCats: l.QueryCats, mat: m}
	for i := range d.Items {
		d.Items[i] = Item{ID: i, Category: l.Category[i], Theme: l.Theme[i], Feature: m.Row(i)}
		d.ByCategory[l.Category[i]] = append(d.ByCategory[l.Category[i]], i)
	}
	return d, nil
}

// Labels returns the collection's labels in the form an FBMX file stores
// them beside the rows, with spec as their provenance.
func (d *Dataset) Labels(spec string) store.Labels {
	l := store.Labels{Spec: spec, QueryCats: d.QueryCats, Category: make([]string, d.Len()), Theme: make([]string, d.Len())}
	for i, it := range d.Items {
		l.Category[i], l.Theme[i] = it.Category, it.Theme
	}
	return l
}

// Len returns the collection size.
func (d *Dataset) Len() int { return len(d.Items) }

// Feature returns item i's feature vector through the bounds-checked
// accessor: an out-of-range index (e.g. from an unvalidated client
// request) returns an error wrapping store.ErrOutOfRange instead of
// panicking.
func (d *Dataset) Feature(i int) ([]float64, error) {
	row, err := d.mat.RowChecked(i)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return row, nil
}

// Relevant returns the number of items in the given category — the
// denominator of the recall metric.
func (d *Dataset) Relevant(category string) int { return len(d.ByCategory[category]) }

// IsGood implements the paper's relevance oracle: item i is a good match
// for a query from queryCategory iff it belongs to the same category.
func (d *Dataset) IsGood(i int, queryCategory string) bool {
	return d.Items[i].Category == queryCategory
}

// Matrix returns the feature matrix the collection is served from
// (aliased; callers must not mutate). Whoever opened the dataset closes
// it.
func (d *Dataset) Matrix() *store.Matrix { return d.mat }

// SampleQueries draws n item indices uniformly at random from the query
// categories, without replacement when possible (with replacement once the
// pool is exhausted). The paper samples queries randomly from the 2,491
// images of the 7 selected categories.
func (d *Dataset) SampleQueries(rng *rand.Rand, n int) ([]int, error) {
	if len(d.QueryCats) == 0 {
		return nil, errors.New("dataset: no query categories configured")
	}
	var pool []int
	for _, c := range d.QueryCats {
		pool = append(pool, d.ByCategory[c]...)
	}
	if len(pool) == 0 {
		return nil, errors.New("dataset: query categories contain no items")
	}
	out := make([]int, 0, n)
	perm := rng.Perm(len(pool))
	for len(out) < n {
		for _, p := range perm {
			if len(out) == n {
				break
			}
			out = append(out, pool[p])
		}
	}
	return out, nil
}
