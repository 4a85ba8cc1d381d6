package antdensity

// This file defines the v2 public API's declarative layer: a Spec is
// a typed, validated description of one estimation run — which
// estimator (Kind), on which graph, with which horizon, noise model,
// tagging, and stopping rule — built either directly or through
// functional options. A Spec compiles to a Run (run.go), which
// executes with context cancellation and live anytime snapshots; a
// Manager (manager.go) schedules many Runs concurrently.

import (
	"fmt"

	"antdensity/internal/adversary"
	"antdensity/internal/core"
	"antdensity/internal/sim"
)

// Kind selects the estimator a Spec describes.
type Kind int

const (
	// KindDensity is Algorithm 1: encounter-rate density estimation.
	KindDensity Kind = iota
	// KindIndependent is Algorithm 4, the Appendix A
	// independent-sampling baseline.
	KindIndependent
	// KindProperty is the Section 5.2 property-frequency swarm
	// computation (d, d_P, and f_P = d_P/d per agent).
	KindProperty
	// KindQuorum is fixed-horizon quorum voting (Section 6.2): each
	// agent votes estimate >= threshold after Rounds rounds.
	KindQuorum
	// KindQuorumAdaptive is anytime quorum detection: each agent stops
	// as soon as its confidence band clears the threshold, up to
	// Rounds rounds.
	KindQuorumAdaptive
	// KindNetworkSize is the Section 5.1 network-size pipeline
	// (burn-in, Algorithm 3 average degree, Algorithm 2 collisions).
	KindNetworkSize
)

var kindNames = map[Kind]string{
	KindDensity:        "density",
	KindIndependent:    "independent",
	KindProperty:       "property",
	KindQuorum:         "quorum",
	KindQuorumAdaptive: "quorum_adaptive",
	KindNetworkSize:    "netsize",
}

// String returns the kind's wire name (the strings accepted by
// ParseKind and the serve API).
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a wire name ("density", "independent",
// "property", "quorum", "quorum_adaptive", "netsize") to its Kind.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("antdensity: unknown kind %q (valid: density, independent, property, quorum, quorum_adaptive, netsize)", s)
}

// NoiseSpec is the Section 6.1 imperfect-sensing model for a Spec:
// each true collision is detected with probability DetectProb, and a
// spurious collision is recorded each round with probability
// SpuriousProb. Seed drives the noise randomness.
type NoiseSpec struct {
	DetectProb   float64
	SpuriousProb float64
	Seed         uint64
}

// AdversarySpec configures the Byzantine fault model for a Spec: a
// Fraction of the agents misreport their collision observations with
// the named strategy (internal/adversary). Valid for density,
// property, and both quorum kinds; the "lie" strategy additionally
// requires KindProperty (it poisons the tagged stream).
type AdversarySpec struct {
	// Kind is the fault strategy wire name: "inflate", "deflate",
	// "random", "lie", "stall", or "crash".
	Kind string
	// Fraction is the adversarial fraction f in [0, 1]; floor(f*n)
	// agents misreport.
	Fraction float64
	// Param is the strategy parameter: the count magnitude for
	// inflate/deflate/random, the trigger round for stall/crash. 0
	// means the strategy default (5/5/10 for the count kinds, half the
	// horizon for the timed kinds).
	Param float64
	// Seed drives adversary selection and the random strategy's draws.
	// 0 derives a seed from the run seed, so adversarial runs stay
	// fully determined by the Spec.
	Seed uint64
}

// Spec is the declarative description of one estimation run. Build it
// with a kind constructor (DensitySpec, QuorumSpec, ...) plus
// functional options, or construct it directly; either way Validate
// checks every field and names the offending one on error, and NewRun
// compiles it into an executable Run.
//
// Graph is required: every run builds its own world on it (from
// NumAgents and Seed, or the netsize walkers from Walkers).
type Spec struct {
	// Kind selects the estimator.
	Kind Kind
	// Graph is the topology to build the run's world on (any Graph;
	// see NewTorus2D and friends, or WithTorus2D-style options).
	Graph Graph
	// NumAgents is the number of agents placed on Graph. Unused for
	// KindNetworkSize (see Walkers).
	NumAgents int
	// Seed drives all of the run's randomness.
	Seed uint64
	// Rounds is the estimation horizon: the fixed round count for
	// density/independent/property/quorum runs, the round budget for
	// adaptive quorum, and the collision-counting steps for netsize.
	Rounds int

	// TaggedCount tags agents 0..TaggedCount-1 before the run (the
	// Section 5.2 property carriers); TaggedAgents tags an explicit id
	// list instead. Valid for density, property, and quorum kinds.
	TaggedCount  int
	TaggedAgents []int
	// TaggedOnly restricts density/quorum collision counting to tagged
	// agents (estimating d_P instead of d).
	TaggedOnly bool
	// Noise enables imperfect collision sensing for density, property,
	// and quorum runs.
	Noise *NoiseSpec
	// Adversary makes a fraction of the agents misreport (density,
	// property, and quorum kinds); see AdversarySpec.
	Adversary *AdversarySpec

	// Threshold is the quorum density threshold theta (quorum kinds
	// only; must be positive).
	Threshold float64
	// Delta is the confidence parameter: adaptive quorum decides at
	// confidence 1-Delta and snapshot confidence bands use it; 0 means
	// 0.05. For KindNetworkSize it is the burn-in failure probability
	// instead, where 0 means the netsize pipeline's own 0.1 default,
	// however the Spec was built.
	Delta float64
	// C1 is the Theorem 1 constant shaping anytime confidence bands
	// (see NewStreamingEstimator). 0 means 0.35.
	C1 float64
	// PolicySeed drives Algorithm 4's walking/stationary coin flips
	// (KindIndependent only).
	PolicySeed uint64

	// Walkers is the number of random walks for KindNetworkSize (>= 2).
	Walkers int
	// BurnIn is the netsize burn-in length; negative derives it from
	// the measured spectral gap (the default).
	BurnIn int
	// Stationary starts netsize walkers from the stable distribution
	// instead of burn-in from SeedVertex.
	Stationary bool
	// SeedVertex is where netsize walks begin when not Stationary.
	SeedVertex int64

	// Shards is the spatial shard count for the run's world (see
	// sim.Config.Shards): 0 lets the world decide (sim.ShardAuto,
	// which also honors the process-wide sim.SetDefaultShards default
	// installed by the CLI's -shards flag). Purely an execution-layout
	// knob — results are bit-identical for every shard count, so it is
	// excluded from the fingerprint. Ignored for KindNetworkSize, whose
	// walker world is built internally and follows the process-wide
	// default.
	Shards int

	// GraphKey optionally names Graph's canonical identity when the
	// graph type cannot carry one itself (no GraphIdentity
	// implementation): callers that build a graph from a recipe set it
	// to the recipe (kind, parameters, and generator seed), making the
	// Spec fingerprintable for result caching. Two Specs with the same
	// GraphKey are asserted to run on identical graphs. Purely
	// observational — never affects results.
	GraphKey string

	// graphErr records a deferred error from a graph-building option
	// (e.g. WithTorus2D with an invalid side); Validate surfaces it.
	graphErr error
}

// SpecOption mutates a Spec under construction.
type SpecOption func(*Spec)

// NewSpec returns a Spec of the given kind with defaults applied
// (Delta 0.05, C1 0.35, automatic netsize burn-in) and the options run
// in order.
func NewSpec(kind Kind, opts ...SpecOption) *Spec {
	s := &Spec{Kind: kind, Delta: 0.05, C1: 0.35, BurnIn: -1}
	if kind == KindNetworkSize {
		// Netsize resolves Delta == 0 to its own 0.1 burn-in default;
		// leaving 0 here keeps constructor-built and directly
		// constructed specs identical (see Spec.Delta).
		s.Delta = 0
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// DensitySpec describes an Algorithm 1 density estimation run.
func DensitySpec(opts ...SpecOption) *Spec { return NewSpec(KindDensity, opts...) }

// IndependentSpec describes an Algorithm 4 independent-sampling run.
func IndependentSpec(opts ...SpecOption) *Spec { return NewSpec(KindIndependent, opts...) }

// PropertySpec describes a Section 5.2 property-frequency run.
func PropertySpec(opts ...SpecOption) *Spec { return NewSpec(KindProperty, opts...) }

// QuorumSpec describes a fixed-horizon quorum vote at the given
// density threshold.
func QuorumSpec(threshold float64, opts ...SpecOption) *Spec {
	s := NewSpec(KindQuorum, opts...)
	s.Threshold = threshold
	return s
}

// AdaptiveQuorumSpec describes an anytime quorum run at the given
// threshold: every agent stops as soon as its confidence band clears
// theta, within the Rounds budget.
func AdaptiveQuorumSpec(threshold float64, opts ...SpecOption) *Spec {
	s := NewSpec(KindQuorumAdaptive, opts...)
	s.Threshold = threshold
	return s
}

// NetworkSizeSpec describes a Section 5.1 network-size estimation run.
func NetworkSizeSpec(opts ...SpecOption) *Spec { return NewSpec(KindNetworkSize, opts...) }

// WithGraph sets the topology the run builds its world on.
func WithGraph(g Graph) SpecOption { return func(s *Spec) { s.Graph = g } }

// WithTorus2D sets the graph to the paper's side x side
// two-dimensional torus.
func WithTorus2D(side int64) SpecOption {
	return func(s *Spec) { s.setGraph(NewTorus2D(side)) }
}

// WithTorus sets the graph to a k-dimensional torus.
func WithTorus(dims int, side int64) SpecOption {
	return func(s *Spec) { s.setGraph(NewTorus(dims, side)) }
}

// WithRing sets the graph to the cycle on n nodes.
func WithRing(n int64) SpecOption {
	return func(s *Spec) { s.setGraph(NewRing(n)) }
}

// WithHypercube sets the graph to the bits-dimensional Boolean
// hypercube.
func WithHypercube(bits int) SpecOption {
	return func(s *Spec) { s.setGraph(NewHypercube(bits)) }
}

// WithComplete sets the graph to the complete graph on n nodes.
func WithComplete(n int64) SpecOption {
	return func(s *Spec) { s.setGraph(NewComplete(n)) }
}

// setGraph records a graph built by an option, deferring any
// construction error to Validate.
func (s *Spec) setGraph(g Graph, err error) {
	if err != nil {
		s.graphErr = err
		return
	}
	s.Graph = g
}

// WithAgents sets the number of agents.
func WithAgents(n int) SpecOption { return func(s *Spec) { s.NumAgents = n } }

// WithSeed sets the seed driving all of the run's randomness.
func WithSeed(seed uint64) SpecOption { return func(s *Spec) { s.Seed = seed } }

// WithRounds sets the estimation horizon (see Spec.Rounds).
func WithRounds(t int) SpecOption { return func(s *Spec) { s.Rounds = t } }

// WithTaggedCount tags agents 0..k-1 as property carriers before the
// run starts.
func WithTaggedCount(k int) SpecOption { return func(s *Spec) { s.TaggedCount = k } }

// WithTaggedAgents tags an explicit list of agent ids.
func WithTaggedAgents(ids ...int) SpecOption {
	return func(s *Spec) { s.TaggedAgents = append(s.TaggedAgents, ids...) }
}

// CountTaggedOnly restricts collision counting to tagged agents,
// estimating the property density d_P instead of d (density and
// quorum kinds).
func CountTaggedOnly() SpecOption { return func(s *Spec) { s.TaggedOnly = true } }

// WithSensingNoise enables the Section 6.1 imperfect-sensing model.
func WithSensingNoise(detectProb, spuriousProb float64, seed uint64) SpecOption {
	return func(s *Spec) {
		s.Noise = &NoiseSpec{DetectProb: detectProb, SpuriousProb: spuriousProb, Seed: seed}
	}
}

// WithAdversary makes floor(fraction*n) agents misreport with the
// named strategy ("inflate", "deflate", "random", "lie", "stall",
// "crash"); param 0 means the strategy default and seed 0 derives the
// adversary seed from the run seed. See AdversarySpec.
func WithAdversary(kind string, fraction, param float64, seed uint64) SpecOption {
	return func(s *Spec) {
		s.Adversary = &AdversarySpec{Kind: kind, Fraction: fraction, Param: param, Seed: seed}
	}
}

// WithConfidence sets the confidence parameter delta in (0, 1).
func WithConfidence(delta float64) SpecOption { return func(s *Spec) { s.Delta = delta } }

// WithBandConstant sets the Theorem 1 constant c1 shaping anytime
// confidence bands.
func WithBandConstant(c1 float64) SpecOption { return func(s *Spec) { s.C1 = c1 } }

// WithPolicySeed sets the Algorithm 4 walking/stationary coin seed
// (KindIndependent).
func WithPolicySeed(seed uint64) SpecOption { return func(s *Spec) { s.PolicySeed = seed } }

// WithWalkers sets the netsize walker count.
func WithWalkers(n int) SpecOption { return func(s *Spec) { s.Walkers = n } }

// WithBurnIn fixes the netsize burn-in length (negative derives it
// from the measured spectral gap).
func WithBurnIn(m int) SpecOption { return func(s *Spec) { s.BurnIn = m } }

// WithStationary starts netsize walkers from the stable distribution.
func WithStationary() SpecOption { return func(s *Spec) { s.Stationary = true } }

// WithSeedVertex sets the vertex netsize walks begin at.
func WithSeedVertex(v int64) SpecOption { return func(s *Spec) { s.SeedVertex = v } }

// WithShards sets the run world's spatial shard count (0 = auto; see
// Spec.Shards — never affects results, only execution layout).
func WithShards(k int) SpecOption { return func(s *Spec) { s.Shards = k } }

// isQuorum reports whether the kind is one of the quorum estimators.
func (k Kind) isQuorum() bool { return k == KindQuorum || k == KindQuorumAdaptive }

// supportsSensing reports whether the kind accepts the tagging and
// noise fields (the core collision estimators).
func (k Kind) supportsSensing() bool {
	switch k {
	case KindDensity, KindProperty, KindQuorum:
		return true
	}
	return false
}

// supportsAdversary reports whether the kind accepts an AdversarySpec:
// every collision-counting estimator, including adaptive quorum (its
// detector audits the same tampered reports).
func (k Kind) supportsAdversary() bool {
	return k.supportsSensing() || k == KindQuorumAdaptive
}

// Validate checks every Spec field against its kind and valid range.
// Errors name the offending field and the accepted values, so a
// failed Submit or NewRun pinpoints the mistake.
func (s *Spec) Validate() error {
	if _, ok := kindNames[s.Kind]; !ok {
		return fmt.Errorf("antdensity: Spec.Kind %d is not a known kind", int(s.Kind))
	}
	if s.graphErr != nil {
		return fmt.Errorf("antdensity: Spec.Graph option failed: %w", s.graphErr)
	}
	if s.Kind == KindNetworkSize {
		return s.validateNetsize()
	}
	if s.Graph == nil {
		return fmt.Errorf("antdensity: Spec.Graph is required (use WithGraph or a topology option)")
	}
	if s.NumAgents < 1 {
		return fmt.Errorf("antdensity: Spec.NumAgents must be >= 1, got %d", s.NumAgents)
	}
	if s.Rounds < 1 {
		return fmt.Errorf("antdensity: Spec.Rounds must be >= 1, got %d", s.Rounds)
	}
	if s.Shards < 0 {
		return fmt.Errorf("antdensity: Spec.Shards must be >= 0 (0 means auto), got %d", s.Shards)
	}
	if s.Delta < 0 || s.Delta >= 1 {
		return fmt.Errorf("antdensity: Spec.Delta %v outside (0, 1) (0 means the 0.05 default)", s.Delta)
	}
	if s.C1 < 0 {
		return fmt.Errorf("antdensity: Spec.C1 must be positive (0 means the 0.35 default), got %v", s.C1)
	}
	if s.Kind.isQuorum() && s.Threshold <= 0 {
		return fmt.Errorf("antdensity: Spec.Threshold must be positive for kind %q, got %v", s.Kind, s.Threshold)
	}
	if !s.Kind.isQuorum() && s.Threshold != 0 {
		return fmt.Errorf("antdensity: Spec.Threshold is only valid for quorum kinds, not %q", s.Kind)
	}
	if !s.Kind.supportsSensing() {
		if s.Noise != nil {
			return fmt.Errorf("antdensity: Spec.Noise is not supported for kind %q (valid: density, property, quorum)", s.Kind)
		}
		if s.TaggedOnly {
			return fmt.Errorf("antdensity: Spec.TaggedOnly is not supported for kind %q (valid: density, quorum)", s.Kind)
		}
		if s.TaggedCount != 0 || len(s.TaggedAgents) > 0 {
			return fmt.Errorf("antdensity: Spec.TaggedCount/TaggedAgents are not supported for kind %q (valid: density, property, quorum)", s.Kind)
		}
	}
	if s.Kind != KindIndependent && s.PolicySeed != 0 {
		return fmt.Errorf("antdensity: Spec.PolicySeed is only valid for kind %q, not %q", KindIndependent, s.Kind)
	}
	if s.TaggedCount < 0 || s.TaggedCount > s.NumAgents {
		return fmt.Errorf("antdensity: Spec.TaggedCount %d outside [0, %d] (the agent count)", s.TaggedCount, s.NumAgents)
	}
	for _, id := range s.TaggedAgents {
		if id < 0 || id >= s.NumAgents {
			return fmt.Errorf("antdensity: Spec.TaggedAgents id %d outside [0, %d)", id, s.NumAgents)
		}
	}
	if s.Noise != nil {
		if s.Noise.DetectProb < 0 || s.Noise.DetectProb > 1 {
			return fmt.Errorf("antdensity: Spec.Noise.DetectProb %v outside [0, 1]", s.Noise.DetectProb)
		}
		if s.Noise.SpuriousProb < 0 || s.Noise.SpuriousProb > 1 {
			return fmt.Errorf("antdensity: Spec.Noise.SpuriousProb %v outside [0, 1]", s.Noise.SpuriousProb)
		}
	}
	if s.Adversary != nil {
		if !s.Kind.supportsAdversary() {
			return fmt.Errorf("antdensity: Spec.Adversary is not supported for kind %q (valid: density, property, quorum, quorum_adaptive)", s.Kind)
		}
		cfg, err := s.adversaryConfig()
		if err != nil {
			return fmt.Errorf("antdensity: Spec.Adversary: %w", err)
		}
		if cfg.Kind == adversary.Lie && s.Kind != KindProperty {
			return fmt.Errorf("antdensity: Spec.Adversary kind %q needs the tagged stream, so it is only valid for kind %q, not %q", adversary.Lie, KindProperty, s.Kind)
		}
	}
	if s.Walkers != 0 {
		return fmt.Errorf("antdensity: Spec.Walkers is only valid for kind %q, not %q", KindNetworkSize, s.Kind)
	}
	if s.Stationary {
		return fmt.Errorf("antdensity: Spec.Stationary is only valid for kind %q, not %q", KindNetworkSize, s.Kind)
	}
	if s.SeedVertex != 0 {
		return fmt.Errorf("antdensity: Spec.SeedVertex is only valid for kind %q, not %q", KindNetworkSize, s.Kind)
	}
	return nil
}

// validateNetsize checks the KindNetworkSize field subset.
func (s *Spec) validateNetsize() error {
	if s.Graph == nil {
		return fmt.Errorf("antdensity: Spec.Graph is required for kind %q", s.Kind)
	}
	if s.Walkers < 2 {
		return fmt.Errorf("antdensity: Spec.Walkers must be >= 2 for kind %q, got %d", s.Kind, s.Walkers)
	}
	if s.Rounds < 1 {
		return fmt.Errorf("antdensity: Spec.Rounds (collision-counting steps) must be >= 1, got %d", s.Rounds)
	}
	if s.Delta < 0 || s.Delta >= 1 {
		return fmt.Errorf("antdensity: Spec.Delta %v outside (0, 1) (0 means the netsize 0.1 default)", s.Delta)
	}
	if s.Shards < 0 {
		return fmt.Errorf("antdensity: Spec.Shards must be >= 0 (0 means auto), got %d", s.Shards)
	}
	if !s.Stationary {
		if s.SeedVertex < 0 || s.SeedVertex >= s.Graph.NumNodes() {
			return fmt.Errorf("antdensity: Spec.SeedVertex %d outside [0, %d) (the graph's node range)", s.SeedVertex, s.Graph.NumNodes())
		}
	}
	if s.NumAgents != 0 {
		return fmt.Errorf("antdensity: Spec.NumAgents is not used by kind %q; set Spec.Walkers instead", s.Kind)
	}
	if s.Noise != nil || s.TaggedOnly || s.TaggedCount != 0 || len(s.TaggedAgents) > 0 {
		return fmt.Errorf("antdensity: noise/tagging fields are not supported for kind %q", s.Kind)
	}
	if s.Adversary != nil {
		return fmt.Errorf("antdensity: Spec.Adversary is not supported for kind %q (valid: density, property, quorum, quorum_adaptive)", s.Kind)
	}
	if s.Threshold != 0 {
		return fmt.Errorf("antdensity: Spec.Threshold is only valid for quorum kinds, not %q", s.Kind)
	}
	return nil
}

// delta returns the effective confidence parameter.
func (s *Spec) delta() float64 {
	if s.Delta == 0 {
		return 0.05
	}
	return s.Delta
}

// c1 returns the effective band constant.
func (s *Spec) c1() float64 {
	if s.C1 == 0 {
		return 0.35
	}
	return s.C1
}

// buildWorld materializes the Spec's world from Graph/NumAgents/Seed,
// with tagging applied.
func (s *Spec) buildWorld() (*sim.World, error) {
	w, err := sim.NewWorld(sim.Config{Graph: s.Graph, NumAgents: s.NumAgents, Seed: s.Seed, Shards: s.Shards})
	if err != nil {
		return nil, err
	}
	for i := 0; i < s.TaggedCount; i++ {
		w.SetTagged(i, true)
	}
	for _, id := range s.TaggedAgents {
		w.SetTagged(id, true)
	}
	return w, nil
}

// adversaryConfig resolves the Spec's adversary block to a compiled
// adversary.Config: horizon-aware Param defaults (a timed strategy
// with Param 0 triggers at half the horizon, floored at round 1) and a
// Seed derived from the run seed when 0, so the adversarial population
// is fully determined by the Spec.
func (s *Spec) adversaryConfig() (adversary.Config, error) {
	a := s.Adversary
	kind, err := adversary.ParseKind(a.Kind)
	if err != nil {
		return adversary.Config{}, err
	}
	cfg := adversary.Config{Kind: kind, Fraction: a.Fraction, Param: a.Param, Seed: a.Seed}
	if kind.Timed() && cfg.Param == 0 {
		cfg.Param = float64(s.Rounds / 2)
		if cfg.Param < 1 {
			cfg.Param = 1
		}
	}
	if cfg.Seed == 0 {
		// Distinct from the run seed itself so the adversary's
		// substreams never collide with the world's.
		cfg.Seed = s.Seed + 0xad5eed
	}
	return cfg, cfg.Validate()
}

// tamperer compiles the Spec's adversary for an n-agent run (nil when
// no adversary is configured).
func (s *Spec) tamperer(n int) (*adversary.Tamperer, error) {
	if s.Adversary == nil {
		return nil, nil
	}
	cfg, err := s.adversaryConfig()
	if err != nil {
		return nil, err
	}
	return adversary.New(n, cfg)
}

// estimatorOptions assembles the core option list from the tagging
// and noise fields.
func (s *Spec) estimatorOptions() []core.Option {
	var opts []core.Option
	if s.TaggedOnly {
		opts = append(opts, core.WithTaggedOnly())
	}
	if s.Noise != nil {
		opts = append(opts, core.WithNoise(s.Noise.DetectProb, s.Noise.SpuriousProb, s.Noise.Seed))
	}
	return opts
}
