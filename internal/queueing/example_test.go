package queueing_test

import (
	"fmt"

	"heterosched/internal/queueing"
)

// Predict the paper's headline comparison analytically: mean response
// ratio of the weighted vs optimized allocation on a skewed system.
func ExampleSystem_MeanResponseRatio() {
	speeds := []float64{1, 1, 10}
	sys, err := queueing.SystemFromUtilization(speeds, 76.8, 0.7)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	weighted := []float64{1.0 / 12, 1.0 / 12, 10.0 / 12}
	r, err := sys.MeanResponseRatio(weighted)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("weighted allocation: mean response ratio %.4f\n", r)
	// Output:
	// weighted allocation: mean response ratio 0.8333
}

// Theorem 1's closed-form minimum of the objective function F.
func ExampleSystem_TheoremOneMinimum() {
	sys, err := queueing.SystemFromUtilization([]float64{4, 5, 6}, 1.0, 0.8)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fstar, err := sys.TheoremOneMinimum()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("F* = %.4f, implied mean response time %.4f s\n",
		fstar, sys.ObjectiveToMeanResponseTime(fstar))
	// Output:
	// F* = 14.8989, implied mean response time 0.9916 s
}
