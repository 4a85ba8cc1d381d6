package antdensity_test

import (
	"math"
	"testing"

	"antdensity"
)

// These tests exercise the public facade end to end, the way a
// downstream user would: topology constructors, then Spec -> Run.

func TestFacadeDensityEstimation(t *testing.T) {
	grid, err := antdensity.NewTorus2D(30)
	if err != nil {
		t.Fatal(err)
	}
	ests := runSpec(t, antdensity.DensitySpec(
		antdensity.WithGraph(grid),
		antdensity.WithAgents(91), // d = 0.1
		antdensity.WithSeed(7),
		antdensity.WithRounds(2000),
	)).Estimates
	if len(ests) != 91 {
		t.Fatalf("got %d estimates", len(ests))
	}
	var sum float64
	for _, e := range ests {
		sum += e
	}
	mean := sum / float64(len(ests))
	if math.Abs(mean-0.1) > 0.04 {
		t.Errorf("mean estimate = %v, want ~0.1", mean)
	}
}

func TestFacadeTopologies(t *testing.T) {
	if _, err := antdensity.NewRing(10); err != nil {
		t.Error(err)
	}
	if _, err := antdensity.NewTorus(3, 5); err != nil {
		t.Error(err)
	}
	if _, err := antdensity.NewHypercube(6); err != nil {
		t.Error(err)
	}
	if _, err := antdensity.NewComplete(10); err != nil {
		t.Error(err)
	}
	g, err := antdensity.NewRandomRegular(100, 4, 1)
	if err != nil {
		t.Error(err)
	}
	if g.NumNodes() != 100 {
		t.Errorf("random regular nodes = %d", g.NumNodes())
	}
}

func TestFacadeIndependentSampling(t *testing.T) {
	grid, err := antdensity.NewTorus2D(100)
	if err != nil {
		t.Fatal(err)
	}
	ests := runSpec(t, antdensity.IndependentSpec(
		antdensity.WithGraph(grid),
		antdensity.WithAgents(501),
		antdensity.WithSeed(3),
		antdensity.WithRounds(80),
		antdensity.WithPolicySeed(9),
	)).Estimates
	if len(ests) != 501 {
		t.Fatalf("got %d estimates", len(ests))
	}
}

func TestFacadePropertyFrequency(t *testing.T) {
	grid, err := antdensity.NewTorus2D(20)
	if err != nil {
		t.Fatal(err)
	}
	res := runSpec(t, antdensity.PropertySpec(
		antdensity.WithGraph(grid),
		antdensity.WithAgents(60),
		antdensity.WithSeed(5),
		antdensity.WithRounds(500),
		antdensity.WithTaggedCount(15),
	)).Property
	if len(res.Frequency) != 60 {
		t.Fatalf("got %d frequencies", len(res.Frequency))
	}
}

func TestFacadeStreamingAndQuorum(t *testing.T) {
	est, err := antdensity.NewStreamingEstimator(0.35)
	if err != nil {
		t.Fatal(err)
	}
	est.Observe(1)
	if est.Rounds() != 1 {
		t.Error("streaming estimator did not record round")
	}

	grid, err := antdensity.NewTorus2D(15)
	if err != nil {
		t.Fatal(err)
	}
	votes := runSpec(t, antdensity.QuorumSpec(0.1, // d ~ 0.35 >> 0.1
		antdensity.WithGraph(grid),
		antdensity.WithAgents(80),
		antdensity.WithSeed(11),
		antdensity.WithRounds(800),
	)).Votes
	yes := 0
	for _, v := range votes {
		if v {
			yes++
		}
	}
	if yes < len(votes)*3/4 {
		t.Errorf("only %d/%d votes at 3.5x threshold", yes, len(votes))
	}
}

func TestFacadeRequiredRounds(t *testing.T) {
	if r := antdensity.RequiredRounds(0.2, 0.05, 0.1, 1); r < 100 {
		t.Errorf("RequiredRounds = %d, suspiciously small", r)
	}
}

func TestFacadeNetworkSize(t *testing.T) {
	g, err := antdensity.NewTorus(3, 7) // odd side: non-bipartite
	if err != nil {
		t.Fatal(err)
	}
	res := runSpec(t, antdensity.NetworkSizeSpec(
		antdensity.WithGraph(g),
		antdensity.WithWalkers(40),
		antdensity.WithRounds(80),
		antdensity.WithStationary(),
		antdensity.WithSeed(13),
	)).NetworkSize
	truth := float64(g.NumNodes())
	if res.Size < truth/3 || res.Size > truth*3 {
		t.Errorf("size estimate %v far from %v", res.Size, truth)
	}
}
