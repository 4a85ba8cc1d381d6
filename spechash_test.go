package antdensity_test

import (
	"testing"

	"antdensity"
	"antdensity/internal/topology"
)

func fingerprintOK(t *testing.T, s *antdensity.Spec) string {
	t.Helper()
	fp, ok := s.Fingerprint()
	if !ok || fp == "" {
		t.Fatalf("Fingerprint() = %q, %v; want fingerprintable", fp, ok)
	}
	return fp
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	base := func() *antdensity.Spec { return quickSpec(42) }
	fp := fingerprintOK(t, base())
	if fp2 := fingerprintOK(t, base()); fp2 != fp {
		t.Fatalf("identical specs disagree: %s vs %s", fp, fp2)
	}

	// Every result-determining change must move the fingerprint.
	mutations := map[string]func(*antdensity.Spec){
		"seed":       func(s *antdensity.Spec) { s.Seed = 43 },
		"rounds":     func(s *antdensity.Spec) { s.Rounds = 201 },
		"agents":     func(s *antdensity.Spec) { s.NumAgents = 22 },
		"kind":       func(s *antdensity.Spec) { s.Kind = antdensity.KindIndependent },
		"tagged":     func(s *antdensity.Spec) { s.TaggedCount = 3 },
		"taggedonly": func(s *antdensity.Spec) { s.TaggedOnly = true },
		"noise":      func(s *antdensity.Spec) { s.Noise = &antdensity.NoiseSpec{DetectProb: 0.9} },
		"graph":      func(s *antdensity.Spec) { s.Graph = topology.MustTorus(2, 21) },
		"delta":      func(s *antdensity.Spec) { s.Delta = 0.01 },
	}
	for name, mutate := range mutations {
		s := base()
		mutate(s)
		if got := fingerprintOK(t, s); got == fp {
			t.Errorf("mutation %q did not change the fingerprint", name)
		}
	}

	// Shards is execution layout only (results are shard-invariant):
	// same fingerprint, so sharded and flat submissions dedup together.
	for _, k := range []int{1, 2, 7} {
		s := base()
		s.Shards = k
		if got := fingerprintOK(t, s); got != fp {
			t.Errorf("Shards = %d changed the fingerprint: %s vs %s", k, got, fp)
		}
	}

	// Explicit Delta equal to the default hashes like the default.
	s := base()
	s.Delta = 0.05
	if got := fingerprintOK(t, s); got != fp {
		t.Errorf("explicit default Delta changed the fingerprint")
	}
}

func TestFingerprintTaggedAgentsCanonical(t *testing.T) {
	mk := func(ids ...int) *antdensity.Spec {
		s := quickSpec(1)
		s.TaggedAgents = ids
		return s
	}
	a := fingerprintOK(t, mk(3, 1, 2))
	b := fingerprintOK(t, mk(1, 2, 3, 3))
	if a != b {
		t.Fatalf("order/duplicates changed the fingerprint: %s vs %s", a, b)
	}
	if c := fingerprintOK(t, mk(1, 2)); c == a {
		t.Fatalf("different tag set hashed identically")
	}
}

func TestFingerprintUnfingerprintable(t *testing.T) {
	// An identity-less graph is the one unfingerprintable case — until
	// a GraphKey asserts the recipe.
	adj, err := antdensity.NewRandomRegular(64, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := antdensity.DensitySpec(
		antdensity.WithGraph(adj),
		antdensity.WithAgents(5),
		antdensity.WithRounds(10),
	)
	if _, ok := s.Fingerprint(); ok {
		t.Error("Adj-backed spec without GraphKey should not be fingerprintable")
	}
	s.GraphKey = "regular:nodes=64,degree=4,seed=9"
	fp1 := fingerprintOK(t, s)
	s2 := antdensity.DensitySpec(
		antdensity.WithGraph(adj),
		antdensity.WithAgents(5),
		antdensity.WithRounds(10),
		antdensity.WithGraphKey("regular:nodes=64,degree=4,seed=9"),
	)
	if fp2 := fingerprintOK(t, s2); fp2 != fp1 {
		t.Errorf("equal GraphKeys disagree: %s vs %s", fp1, fp2)
	}
}

func TestGraphIDs(t *testing.T) {
	for _, tc := range []struct {
		g    antdensity.Graph
		want string
	}{
		{topology.MustTorus(2, 20), "torus:dims=2,side=20"},
		{topology.MustHypercube(5), "hypercube:bits=5"},
		{topology.MustComplete(9), "complete:nodes=9"},
	} {
		id, ok := tc.g.(antdensity.GraphIdentity)
		if !ok {
			t.Fatalf("%T does not implement GraphIdentity", tc.g)
		}
		if got := id.GraphID(); got != tc.want {
			t.Errorf("GraphID(%T) = %q, want %q", tc.g, got, tc.want)
		}
	}
}
