package feedbackbypass_test

import (
	"errors"
	"fmt"
	"log"

	feedbackbypass "repro"
)

// A module for a codec of one's own: query points in the standard
// 2-simplex (x, y ≥ 0, x + y ≤ 1), OQPs of a 2-D offset and two weights
// in the caller's own parameterization. A query outside the simplex is
// refused with ErrOutOfDomain.
func ExampleNew() {
	bypass, err := feedbackbypass.New(2, 2, feedbackbypass.Config{Epsilon: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	learned := feedbackbypass.OQP{Delta: []float64{0.04, -0.02}, Weights: []float64{3, 0.5}}
	if _, err := bypass.Insert([]float64{0.3, 0.3}, learned); err != nil {
		log.Fatal(err)
	}
	for _, q := range [][]float64{{0.3, 0.3}, {0.2, 0.3}} {
		oqp, err := bypass.Predict(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v: Δ %.3f, W %.3f\n", q, oqp.Delta, oqp.Weights)
	}
	_, err = bypass.Predict([]float64{0.7, 0.7})
	fmt.Println("outside the domain:", errors.Is(err, feedbackbypass.ErrOutOfDomain))
	// Output:
	// [0.3 0.3]: Δ [0.040 -0.020], W [3.000 0.500]
	// [0.2 0.3]: Δ [0.027 -0.013], W [2.333 0.667]
	// outside the domain: true
}
