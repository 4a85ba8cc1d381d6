package antdensity

// This file makes Specs content-addressable: Fingerprint hashes every
// result-determining field of a Spec into a stable hex digest, so two
// Specs with equal fingerprints are guaranteed to produce identical
// results (the whole stack is deterministic for a fixed seed). The
// Manager's result cache and the serve layer's dedup both key on it —
// identical deterministic runs are never recomputed.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// fingerprintExcluded names the Spec fields deliberately left out of
// Fingerprint, each reviewed as incapable of affecting results. The
// fingerprintcover analyzer (internal/analysis, run by cmd/antlint)
// enforces that every Spec field is either hashed by Fingerprint or
// listed here — a new field cannot ship without a cache-semantics
// decision, because an unhashed result-affecting field would make the
// (Spec, seed) cache serve wrong results to every deduped client.
var fingerprintExcluded = []string{
	"Shards",   // execution layout; results are shard-invariant (TestRunShardInvariance)
	"graphErr", // deferred option error; Validate rejects the Spec before any run
}

// GraphIdentity is optionally implemented by Graphs with a canonical,
// content-addressable identity: equal GraphID strings mean identical
// graphs, node for node and edge for edge. The arithmetic topologies
// (Torus, Hypercube, Complete) implement it; adjacency graphs built
// from a recipe should carry the recipe via Spec.GraphKey instead.
type GraphIdentity interface {
	GraphID() string
}

// Fingerprint returns a canonical content hash of the Spec's
// result-determining fields (kind, graph identity, agent count, seed,
// horizon, tagging, noise, thresholds, netsize knobs — everything
// except execution-layout settings like Shards), and whether the Spec
// is fingerprintable at all.
//
// It returns ok == false when the Spec's result cannot be proven
// equal from its fields alone, which happens only for a Graph with no
// identity (no GraphIdentity implementation and no Spec.GraphKey).
// Non-fingerprintable Specs simply bypass result caches.
func (s *Spec) Fingerprint() (string, bool) {
	gid, ok := s.graphIdentity()
	if !ok {
		return "", false
	}
	var b strings.Builder
	field := func(name, value string) {
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(value)
		b.WriteByte('\n')
	}
	num := func(name string, v int64) { field(name, strconv.FormatInt(v, 10)) }
	f64 := func(name string, v float64) { field(name, strconv.FormatFloat(v, 'g', -1, 64)) }
	field("kind", s.Kind.String())
	field("graph", gid)
	num("agents", int64(s.NumAgents))
	field("seed", strconv.FormatUint(s.Seed, 10))
	num("rounds", int64(s.Rounds))
	num("tagged_count", int64(s.TaggedCount))
	field("tagged_agents", canonicalIDList(s.TaggedAgents))
	field("tagged_only", strconv.FormatBool(s.TaggedOnly))
	if s.Noise != nil {
		f64("noise_detect", s.Noise.DetectProb)
		f64("noise_spurious", s.Noise.SpuriousProb)
		field("noise_seed", strconv.FormatUint(s.Noise.Seed, 10))
	}
	if s.Adversary != nil {
		field("adversary_kind", s.Adversary.Kind)
		f64("adversary_fraction", s.Adversary.Fraction)
		f64("adversary_param", s.Adversary.Param)
		field("adversary_seed", strconv.FormatUint(s.Adversary.Seed, 10))
	}
	f64("threshold", s.Threshold)
	f64("delta", s.delta())
	f64("c1", s.c1())
	field("policy_seed", strconv.FormatUint(s.PolicySeed, 10))
	num("walkers", int64(s.Walkers))
	num("burn_in", int64(s.BurnIn))
	field("stationary", strconv.FormatBool(s.Stationary))
	num("seed_vertex", s.SeedVertex)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), true
}

// graphIdentity resolves the graph's canonical identity: an explicit
// GraphKey wins (the caller knows the recipe), then the graph's own
// GraphID.
func (s *Spec) graphIdentity() (string, bool) {
	if s.GraphKey != "" {
		return "key:" + s.GraphKey, true
	}
	if g, ok := s.Graph.(GraphIdentity); ok {
		return "id:" + g.GraphID(), true
	}
	return "", false
}

// canonicalIDList renders an id list order- and duplicate-insensitively
// (tagging the same set twice or in a different order is the same run).
func canonicalIDList(ids []int) string {
	if len(ids) == 0 {
		return ""
	}
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	var b strings.Builder
	last := -1
	for i, id := range sorted {
		if i > 0 && id == last {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
		last = id
	}
	return b.String()
}

// WithGraphKey attaches a canonical identity to a Graph that cannot
// carry one itself (e.g. an adjacency graph sampled from a recipe —
// the recipe string plus its seed is the identity). Callers are
// responsible for the key actually determining the graph; see
// Spec.GraphKey.
func WithGraphKey(key string) SpecOption { return func(s *Spec) { s.GraphKey = key } }
