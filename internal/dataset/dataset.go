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
// vectors live behind one contiguous row-major store.Backend — an
// in-heap FlatMatrix for generated collections, or an mmap-resident
// MmapMatrix for collections opened from FBMX files — and every
// Item.Feature is a view into it, so the scan kernels stream the whole
// collection as one slab regardless of where it resides.
type Dataset struct {
	Items      []Item
	Dim        int
	ByCategory map[string][]int // category → item indices
	QueryCats  []string         // categories queries are sampled from

	mat store.Backend
}

// Build generates the collection from cfg and extracts features with the
// given extractor. Images are rendered and extracted one at a time across
// GOMAXPROCS workers, each filling a contiguous row range in place with
// its own imagegen.Renderer, so workers share nothing and a worker's
// loop allocates nothing: an image's pixels depend only on
// (cfg.Seed, id), so the dataset is bit-identical to a serial
// imagegen.Generate → Extract pass for any worker count, without ever
// holding the rasters (1.35 GB at scale 10).
func Build(cfg imagegen.Config, ex histogram.Extractor) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Count()
	if n == 0 {
		return nil, errors.New("dataset: configuration generates no images")
	}
	mat, err := store.NewFlatMatrix(n, ex.Bins())
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
				g, err := r.Render(i)
				if err != nil {
					errs[w] = err
					return
				}
				row := mat.Row(i)
				if err := ex.ExtractInto(row, g.Image); err != nil {
					errs[w] = fmt.Errorf("dataset: extracting image %d: %w", g.ID, err)
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
	mat, err := store.NewFlatMatrix(len(items), dim)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	d.mat = mat
	for i, it := range items {
		if len(it.Feature) != dim {
			return nil, fmt.Errorf("dataset: item %d has dimension %d, want %d", i, len(it.Feature), dim)
		}
		if err := mat.SetRow(i, it.Feature); err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		it.Feature = mat.Row(i)
		d.ByCategory[it.Category] = append(d.ByCategory[it.Category], i)
		d.Items = append(d.Items, it)
	}
	return d, nil
}

// FromBackend builds a dataset directly over an existing feature
// backend — the open path for FBMX collection files, whose rows are
// served in place (mmap-resident) rather than copied into the heap.
// items supplies per-row metadata positionally aligned with the backend
// (Feature fields are ignored and replaced by backend views); a nil
// items gives every row an unlabeled item (empty category), which is
// sufficient for serving externally-scored sessions where relevance
// comes from the client, not the category oracle.
func FromBackend(b store.Backend, items []Item, queryCats []string) (*Dataset, error) {
	if b == nil || b.Len() == 0 {
		return nil, errors.New("dataset: empty backend")
	}
	if items != nil && len(items) != b.Len() {
		return nil, fmt.Errorf("dataset: %d item labels for %d rows", len(items), b.Len())
	}
	d := &Dataset{Dim: b.Dim(), ByCategory: make(map[string][]int), QueryCats: queryCats, mat: b}
	for i := 0; i < b.Len(); i++ {
		it := Item{ID: i}
		if items != nil {
			it = items[i]
		}
		it.Feature = b.Row(i)
		d.ByCategory[it.Category] = append(d.ByCategory[it.Category], i)
		d.Items = append(d.Items, it)
	}
	return d, nil
}

// Len returns the collection size.
func (d *Dataset) Len() int { return len(d.Items) }

// Feature returns item i's feature vector through the bounds-checked
// accessor: an out-of-range index (e.g. from an unvalidated client
// request) returns an error wrapping store.ErrOutOfRange instead of
// panicking.
func (d *Dataset) Feature(i int) ([]float64, error) {
	row, err := store.RowChecked(d.mat, i)
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

// Features returns the feature matrix as a slice of rows (aliasing the
// backend; callers must not mutate).
func (d *Dataset) Features() [][]float64 {
	return store.RowsOf(d.mat)
}

// Matrix returns the feature backend the collection is served from
// (aliased; callers must not mutate).
func (d *Dataset) Matrix() store.Backend { return d.mat }

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

// SampleQueriesFromCategory draws n item indices from one category.
func (d *Dataset) SampleQueriesFromCategory(rng *rand.Rand, category string, n int) ([]int, error) {
	pool := d.ByCategory[category]
	if len(pool) == 0 {
		return nil, fmt.Errorf("dataset: category %q has no items", category)
	}
	out := make([]int, 0, n)
	for len(out) < n {
		for _, p := range rng.Perm(len(pool)) {
			if len(out) == n {
				break
			}
			out = append(out, pool[p])
		}
	}
	return out, nil
}
