package antdensity_test

import (
	"context"
	"fmt"
	"log"

	"antdensity"
)

// Example demonstrates the paper's headline computation: anonymous
// agents random-walking on a torus estimate their population density
// purely from how often they bump into each other.
func Example() {
	grid, err := antdensity.NewTorus2D(50) // A = 2500 nodes
	if err != nil {
		log.Fatal(err)
	}
	run, err := antdensity.DensitySpec(
		antdensity.WithGraph(grid),
		antdensity.WithAgents(251), // density d = 250/2500 = 0.1
		antdensity.WithSeed(1),
		antdensity.WithRounds(5000),
	).Start(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	res, err := run.Result()
	if err != nil {
		log.Fatal(err)
	}
	density, _ := res.Metric("true_density")
	mean, _ := res.Metric("mean_estimate")
	fmt.Printf("true density: %.2f\n", density)
	fmt.Printf("mean estimate within 10%%: %v\n", mean > 0.09 && mean < 0.11)
	// Output:
	// true density: 0.10
	// mean estimate within 10%: true
}

// ExampleQuorumSpec shows threshold detection: agents vote on
// whether the local density exceeds a quorum level.
func ExampleQuorumSpec() {
	run, err := antdensity.QuorumSpec(0.1, // theta = 0.1
		antdensity.WithTorus2D(20),
		antdensity.WithAgents(121), // d = 0.3
		antdensity.WithSeed(4),
		antdensity.WithRounds(2000),
	).Start(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	out, err := run.Output()
	if err != nil {
		log.Fatal(err)
	}
	votes := out.Votes
	yes := 0
	for _, v := range votes {
		if v {
			yes++
		}
	}
	fmt.Printf("most agents detect quorum: %v\n", yes > len(votes)/2)
	// Output:
	// most agents detect quorum: true
}

// ExampleNewStreamingEstimator shows the anytime interface: feed
// per-round collision counts and read a confidence interval whenever
// needed.
func ExampleNewStreamingEstimator() {
	est, err := antdensity.NewStreamingEstimator(0.35)
	if err != nil {
		log.Fatal(err)
	}
	// Synthetic stream: one collision every ten rounds (d ~ 0.1).
	for r := 0; r < 1000; r++ {
		c := 0
		if r%10 == 0 {
			c = 1
		}
		est.Observe(c)
	}
	fmt.Printf("estimate: %.1f\n", est.Estimate())
	fmt.Printf("rounds: %d\n", est.Rounds())
	// Output:
	// estimate: 0.1
	// rounds: 1000
}

// ExampleRequiredRounds evaluates Theorem 1's sufficient horizon.
func ExampleRequiredRounds() {
	// How long must an ant walk to estimate d ~ 0.05 within 20%
	// with 95% confidence (constant c2 = 1)?
	t := antdensity.RequiredRounds(0.2, 0.05, 0.05, 1)
	fmt.Printf("rounds needed: > 10000: %v\n", t > 10000)
	// Output:
	// rounds needed: > 10000: true
}
