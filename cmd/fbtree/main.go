// Command fbtree inspects a persisted Simplex Tree — a file written by
// Save or fbbench -save, or a durable module's tree.fbwl (census plus
// journal) — printing its header, shape statistics, and optionally a
// prediction at a query point.
//
// Usage:
//
//	fbtree -file fbstate/shard-000/tree.fbwl
//	fbtree -file tree.fbwl -predict 0.1,0.2,0.05,...
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/persist"
)

func main() {
	var (
		file    = flag.String("file", "", "persisted Simplex Tree: a saved tree or a module's tree.fbwl (required)")
		predict = flag.String("predict", "", "comma-separated query point to predict at (optional)")
	)
	flag.Parse()
	if *file == "" {
		fmt.Fprintln(os.Stderr, "fbtree: -file is required")
		flag.Usage()
		os.Exit(2)
	}
	tree, err := persist.LoadFile(*file)
	if err != nil {
		fail(err)
	}
	st := tree.Stats()
	fmt.Printf("file:               %s\n", *file)
	fmt.Printf("query dimension D:  %d\n", st.Dim)
	fmt.Printf("OQP dimension N:    %d\n", st.OQPDim)
	fmt.Printf("insert threshold ε: %g\n", tree.Epsilon())
	fmt.Printf("stored points:      %d\n", st.Points)
	fmt.Printf("distinct vertices:  %d\n", st.DistinctVertices)
	fmt.Printf("nodes / leaves:     %d / %d\n", st.Nodes, st.Leaves)
	fmt.Printf("depth (max/avg):    %d / %.2f\n", st.Depth, st.AvgLeafDepth)

	if *predict == "" {
		return
	}
	parts := strings.Split(*predict, ",")
	q := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			fail(fmt.Errorf("parsing query component %d: %w", i, err))
		}
		q[i] = v
	}
	oqp := make([]float64, tree.OQPDim())
	pst, err := tree.PredictInto(oqp, q)
	if err != nil {
		fail(err)
	}
	fmt.Printf("\nprediction at %v:\n", q)
	fmt.Printf("  simplices traversed: %d\n", pst.Traversed)
	fmt.Printf("  OQP vector: %v\n", oqp)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fbtree:", err)
	os.Exit(1)
}
