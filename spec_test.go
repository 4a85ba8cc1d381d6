package antdensity_test

import (
	"strings"
	"testing"

	"antdensity"
)

// mustGraph returns a small torus for validation tests.
func mustGraph(t *testing.T) antdensity.Graph {
	t.Helper()
	g, err := antdensity.NewTorus2D(10)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSpecValidationErrors table-tests every invalid-field path: each
// error must name the offending Spec field (and, where applicable,
// the valid range) so a failed Submit pinpoints the mistake.
func TestSpecValidationErrors(t *testing.T) {
	g := mustGraph(t)
	base := func(opts ...antdensity.SpecOption) []antdensity.SpecOption {
		return append([]antdensity.SpecOption{
			antdensity.WithGraph(g),
			antdensity.WithAgents(5),
			antdensity.WithRounds(10),
		}, opts...)
	}
	tests := []struct {
		name string
		spec *antdensity.Spec
		want string // substring the error must contain
	}{
		{
			name: "unknown kind",
			spec: &antdensity.Spec{Kind: antdensity.Kind(99), Graph: g, NumAgents: 5, Rounds: 10},
			want: "Spec.Kind",
		},
		{
			name: "missing graph",
			spec: antdensity.DensitySpec(antdensity.WithAgents(5), antdensity.WithRounds(10)),
			want: "Spec.Graph is required",
		},
		{
			name: "graph option failure",
			spec: antdensity.DensitySpec(antdensity.WithTorus2D(0), antdensity.WithAgents(5), antdensity.WithRounds(10)),
			want: "Spec.Graph option failed",
		},
		{
			name: "zero agents",
			spec: antdensity.DensitySpec(antdensity.WithGraph(g), antdensity.WithRounds(10)),
			want: "Spec.NumAgents must be >= 1",
		},
		{
			name: "zero rounds",
			spec: antdensity.DensitySpec(antdensity.WithGraph(g), antdensity.WithAgents(5)),
			want: "Spec.Rounds must be >= 1",
		},
		{
			name: "delta out of range",
			spec: antdensity.DensitySpec(base(antdensity.WithConfidence(1.5))...),
			want: "Spec.Delta 1.5 outside (0, 1)",
		},
		{
			name: "negative band constant",
			spec: antdensity.DensitySpec(base(antdensity.WithBandConstant(-1))...),
			want: "Spec.C1",
		},
		{
			name: "quorum threshold missing",
			spec: antdensity.QuorumSpec(0, base()...),
			want: "Spec.Threshold must be positive",
		},
		{
			name: "adaptive quorum threshold negative",
			spec: antdensity.AdaptiveQuorumSpec(-0.5, base()...),
			want: "Spec.Threshold must be positive",
		},
		{
			name: "threshold on density",
			spec: func() *antdensity.Spec {
				s := antdensity.DensitySpec(base()...)
				s.Threshold = 0.1
				return s
			}(),
			want: "Spec.Threshold is only valid for quorum kinds",
		},
		{
			name: "noise on independent",
			spec: antdensity.IndependentSpec(base(antdensity.WithSensingNoise(0.9, 0, 1))...),
			want: "Spec.Noise is not supported",
		},
		{
			name: "tagged-only on adaptive quorum",
			spec: antdensity.AdaptiveQuorumSpec(0.1, base(antdensity.CountTaggedOnly())...),
			want: "Spec.TaggedOnly is not supported",
		},
		{
			name: "tagged count on independent",
			spec: antdensity.IndependentSpec(base(antdensity.WithTaggedCount(2))...),
			want: "Spec.TaggedCount/TaggedAgents are not supported",
		},
		{
			name: "noise detect prob out of range",
			spec: antdensity.DensitySpec(base(antdensity.WithSensingNoise(1.5, 0, 1))...),
			want: "Spec.Noise.DetectProb 1.5 outside [0, 1]",
		},
		{
			name: "noise spurious prob out of range",
			spec: antdensity.DensitySpec(base(antdensity.WithSensingNoise(1, -0.1, 1))...),
			want: "Spec.Noise.SpuriousProb -0.1 outside [0, 1]",
		},
		{
			name: "tagged count above agents",
			spec: antdensity.PropertySpec(base(antdensity.WithTaggedCount(9))...),
			want: "Spec.TaggedCount 9 outside [0, 5]",
		},
		{
			name: "tagged agent id out of range",
			spec: antdensity.PropertySpec(base(antdensity.WithTaggedAgents(5))...),
			want: "Spec.TaggedAgents id 5 outside [0, 5)",
		},
		{
			name: "policy seed on density",
			spec: antdensity.DensitySpec(base(antdensity.WithPolicySeed(3))...),
			want: "Spec.PolicySeed is only valid",
		},
		{
			name: "walkers on density",
			spec: antdensity.DensitySpec(base(antdensity.WithWalkers(4))...),
			want: "Spec.Walkers is only valid",
		},
		{
			name: "stationary on density",
			spec: antdensity.DensitySpec(base(antdensity.WithStationary())...),
			want: "Spec.Stationary is only valid",
		},
		{
			name: "seed vertex on density",
			spec: antdensity.DensitySpec(base(antdensity.WithSeedVertex(1))...),
			want: "Spec.SeedVertex is only valid",
		},
		{
			name: "netsize missing graph",
			spec: antdensity.NetworkSizeSpec(antdensity.WithWalkers(4), antdensity.WithRounds(10)),
			want: "Spec.Graph is required",
		},
		{
			name: "netsize one walker",
			spec: antdensity.NetworkSizeSpec(antdensity.WithGraph(g), antdensity.WithWalkers(1), antdensity.WithRounds(10)),
			want: "Spec.Walkers must be >= 2",
		},
		{
			name: "netsize zero steps",
			spec: antdensity.NetworkSizeSpec(antdensity.WithGraph(g), antdensity.WithWalkers(4)),
			want: "Spec.Rounds (collision-counting steps) must be >= 1",
		},
		{
			name: "netsize delta out of range",
			spec: antdensity.NetworkSizeSpec(antdensity.WithGraph(g), antdensity.WithWalkers(4),
				antdensity.WithRounds(10), antdensity.WithConfidence(1.5)),
			want: "Spec.Delta 1.5 outside (0, 1) (0 means the netsize 0.1 default)",
		},
		{
			name: "netsize seed vertex out of range",
			spec: antdensity.NetworkSizeSpec(antdensity.WithGraph(g), antdensity.WithWalkers(4),
				antdensity.WithRounds(10), antdensity.WithSeedVertex(1000)),
			want: "Spec.SeedVertex 1000 outside [0, 100)",
		},
		{
			name: "netsize agents instead of walkers",
			spec: antdensity.NetworkSizeSpec(antdensity.WithGraph(g), antdensity.WithWalkers(4),
				antdensity.WithRounds(10), antdensity.WithAgents(7)),
			want: "Spec.NumAgents is not used",
		},
		{
			name: "netsize with noise",
			spec: antdensity.NetworkSizeSpec(antdensity.WithGraph(g), antdensity.WithWalkers(4),
				antdensity.WithRounds(10), antdensity.WithSensingNoise(0.9, 0, 1)),
			want: "noise/tagging fields are not supported",
		},
		{
			name: "netsize with threshold",
			spec: func() *antdensity.Spec {
				s := antdensity.NetworkSizeSpec(antdensity.WithGraph(g), antdensity.WithWalkers(4), antdensity.WithRounds(10))
				s.Threshold = 0.2
				return s
			}(),
			want: "Spec.Threshold is only valid for quorum kinds",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.spec.Validate()
			if err == nil {
				t.Fatalf("Validate() succeeded, want error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("Validate() error %q does not contain %q", err, tt.want)
			}
			// NewRun must refuse the same spec.
			if _, err := tt.spec.NewRun(); err == nil {
				t.Errorf("NewRun() succeeded on invalid spec")
			}
		})
	}
}

// TestSpecValidationAccepts sanity-checks that a representative valid
// spec of every kind passes validation and compiles.
func TestSpecValidationAccepts(t *testing.T) {
	g := mustGraph(t)
	specs := map[string]*antdensity.Spec{
		"density": antdensity.DensitySpec(antdensity.WithGraph(g), antdensity.WithAgents(5),
			antdensity.WithRounds(10), antdensity.WithSensingNoise(0.9, 0.01, 7)),
		"independent": antdensity.IndependentSpec(antdensity.WithGraph(g), antdensity.WithAgents(5),
			antdensity.WithRounds(3), antdensity.WithPolicySeed(9)),
		"property": antdensity.PropertySpec(antdensity.WithGraph(g), antdensity.WithAgents(5),
			antdensity.WithRounds(10), antdensity.WithTaggedCount(2)),
		"quorum": antdensity.QuorumSpec(0.1, antdensity.WithGraph(g), antdensity.WithAgents(5),
			antdensity.WithRounds(10)),
		"quorum_adaptive": antdensity.AdaptiveQuorumSpec(0.1, antdensity.WithGraph(g),
			antdensity.WithAgents(5), antdensity.WithRounds(10)),
		"netsize": antdensity.NetworkSizeSpec(antdensity.WithGraph(g), antdensity.WithWalkers(4),
			antdensity.WithRounds(10), antdensity.WithStationary()),
	}
	for name, s := range specs {
		if got := s.Kind.String(); got != name {
			t.Errorf("%s: Kind.String() = %q", name, got)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v", name, err)
		}
		if _, err := s.NewRun(); err != nil {
			t.Errorf("%s: NewRun() = %v", name, err)
		}
		k, err := antdensity.ParseKind(name)
		if err != nil || k != s.Kind {
			t.Errorf("ParseKind(%q) = %v, %v", name, k, err)
		}
	}
}
