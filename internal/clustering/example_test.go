package clustering_test

import (
	"fmt"

	"vhadoop/internal/clustering"
)

// The in-memory reference implementations work on plain vectors, no
// simulated cluster required.
func ExampleKMeans() {
	points := []clustering.Vector{
		{0, 0}, {0.5, 0}, {0, 0.5},
		{10, 10}, {10.5, 10}, {10, 10.5},
	}
	initial := []clustering.Vector{{0, 0}, {10, 10}}
	res, err := clustering.KMeans(points, initial, clustering.DefaultKMeansOptions(2))
	if err != nil {
		panic(err)
	}
	fmt.Printf("clusters: %d, first center near origin: %v\n",
		len(res.Centers), res.Centers[0][0] < 1)
	fmt.Printf("assignments: %v\n", res.Assignments)
	// Output:
	// clusters: 2, first center near origin: true
	// assignments: [0 0 0 1 1 1]
}

func ExampleCanopy() {
	points := []clustering.Vector{
		{0, 0}, {0.4, 0}, {8, 8}, {8.3, 8},
	}
	res, err := clustering.Canopy(points, clustering.CanopyOptions{T1: 3, T2: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("canopies: %d\n", len(res.Centers))
	// Output:
	// canopies: 2
}
