package antdensity

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"antdensity/internal/adversary"
	"antdensity/internal/core"
	"antdensity/internal/sim"
)

// Tests of the capture-on-publish, derive-on-read snapshot path
// against the eager per-round derivation it replaced.

// eagerCounts is the eager derivation the Run layer computed on every
// round before snapshots became lazy: c/round per agent, and the
// Theorem 1 band through the unhoisted core.TheoremOneEpsilon.
func eagerCounts(counts []int64, round int, delta, c1 float64) (ests, half []float64) {
	ests = make([]float64, len(counts))
	half = make([]float64, len(counts))
	for i, c := range counts {
		ests[i] = float64(c) / float64(round)
		if ests[i] == 0 {
			half[i] = math.Inf(1)
			continue
		}
		plugin := ests[i]
		if plugin > 1 {
			plugin = 1
		}
		half[i] = core.TheoremOneEpsilon(round, plugin, delta, c1) * ests[i]
	}
	return ests, half
}

// replayCounts reruns the Spec's world and Algorithm 1 pipeline
// (adversary filter and audit included) outside the Run layer and
// records the observer's counts after every round; entry k holds the
// counts after k rounds.
func replayCounts(t *testing.T, s *Spec) [][]int64 {
	t.Helper()
	w, err := s.buildWorld()
	if err != nil {
		t.Fatal(err)
	}
	n := w.NumAgents()
	tam, err := s.tamperer(n)
	if err != nil {
		t.Fatal(err)
	}
	opts := s.estimatorOptions()
	if tam != nil {
		tam.Attach(w)
		opts = append(opts, core.WithReportFilter(tam.Filter()))
	}
	obs, err := core.NewCollisionObserver(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	pipeline := []sim.Observer{obs}
	if tam != nil {
		pipeline = append(pipeline, adversary.NewDetector(n, tam, adversary.DetectorConfig{}))
	}
	rec := [][]int64{make([]int64, n)}
	pipeline = append(pipeline, sim.ObserverFunc(func(*sim.Round) sim.Signal {
		rec = append(rec, slices.Clone(obs.Counts()))
		return sim.Continue
	}))
	if _, err := sim.RunContext(context.Background(), w, s.Rounds, pipeline...); err != nil {
		t.Fatal(err)
	}
	return rec
}

// sameBits reports whether two float slices agree bit for bit.
func sameBits(a, b []float64) bool {
	return len(a) == len(b) && slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// TestSnapshotBitIdentity reads every published round of density,
// quorum and adversarial runs through Snapshot and checks its
// estimates, bands, mean and votes bit for bit against the eager
// derivation from an independent replay of the same Spec.
func TestSnapshotBitIdentity(t *testing.T) {
	specs := map[string]*Spec{
		"density": DensitySpec(WithTorus2D(20), WithAgents(41), WithSeed(7), WithRounds(300)),
		"quorum":  QuorumSpec(0.1, WithTorus2D(20), WithAgents(46), WithSeed(3), WithRounds(300)),
		"density-inflate": DensitySpec(WithTorus2D(20), WithAgents(41), WithSeed(7), WithRounds(300),
			WithAdversary("inflate", 0.2, 3, 11)),
		"density-stall": DensitySpec(WithTorus2D(16), WithAgents(60), WithSeed(2), WithRounds(200),
			WithAdversary("stall", 0.25, 50, 5), WithConfidence(0.01), WithBandConstant(0.6)),
	}
	for name, s := range specs {
		t.Run(name, func(t *testing.T) {
			want := replayCounts(t, s)
			r, err := s.NewRun()
			if err != nil {
				t.Fatal(err)
			}
			// Each publish captures into a fresh frame while the
			// previous round's frame is still current: reading it here
			// sees every published round once, through the reader path.
			var got []Snapshot
			capture := r.capture
			r.capture = func(f *frame) {
				got = append(got, r.Snapshot())
				capture(f)
			}
			if err := r.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := r.Wait(); err != nil {
				t.Fatal(err)
			}
			// Rounds 0..Rounds-1 were read before each capture; the
			// terminal snapshot is the last round.
			got = append(got, r.Snapshot())
			if len(got) != s.Rounds+1 {
				t.Fatalf("read %d snapshots, want %d", len(got), s.Rounds+1)
			}
			for k, snap := range got {
				round := min(k, s.Rounds)
				if snap.Round != round {
					t.Fatalf("snapshot %d is round %d, want %d", k, snap.Round, round)
				}
				if round == 0 {
					if snap.Estimates != nil || snap.CIHalf != nil {
						t.Fatalf("round-0 snapshot carries estimates")
					}
					continue
				}
				ests, half := eagerCounts(want[round], round, s.delta(), s.c1())
				if !sameBits(snap.Estimates, ests) {
					t.Fatalf("round %d: Estimates differ from the eager derivation", round)
				}
				if !sameBits(snap.CIHalf, half) {
					t.Fatalf("round %d: CIHalf differs from the eager derivation", round)
				}
				if math.Float64bits(snap.Mean) != math.Float64bits(meanFinite(ests)) {
					t.Fatalf("round %d: Mean = %v, want %v", round, snap.Mean, meanFinite(ests))
				}
				if s.Kind == KindQuorum {
					yes := 0
					for _, e := range ests {
						if e >= s.Threshold {
							yes++
						}
					}
					if snap.YesVotes != yes {
						t.Fatalf("round %d: YesVotes = %d, want %d", round, snap.YesVotes, yes)
					}
				}
			}
			if final := got[len(got)-1]; final.State != StateDone {
				t.Fatalf("terminal snapshot state = %v", final.State)
			}
			// The terminal snapshot keeps no counts and the ring is
			// released, so a retained finished run holds no buffers.
			if r.cur.Load().counts != nil || r.ring != nil {
				t.Fatal("finished run still holds capture buffers")
			}
		})
	}
}

// TestSnapshotDerivedOncePerRound checks the memoization: two reads of
// the same published round share one derivation.
func TestSnapshotDerivedOncePerRound(t *testing.T) {
	r, err := DensitySpec(WithTorus2D(20), WithAgents(41), WithSeed(1), WithRounds(50)).NewRun()
	if err != nil {
		t.Fatal(err)
	}
	r.publish(1, 50)
	a, b := r.Snapshot(), r.Snapshot()
	if len(a.Estimates) != 41 || &a.Estimates[0] != &b.Estimates[0] || &a.CIHalf[0] != &b.CIHalf[0] {
		t.Fatal("two reads of one round derived twice")
	}
	r.publish(2, 50)
	if c := r.Snapshot(); c.Round != 2 || &c.Estimates[0] == &a.Estimates[0] {
		t.Fatal("a new round reused the previous round's derivation")
	}
}

// TestRunPublishZeroAllocs pins the per-round publish of a run nobody
// reads at zero allocations, for the density and quorum counts
// capture.
func TestRunPublishZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const rounds = 1000
	for _, s := range []*Spec{
		DensitySpec(WithTorus2D(20), WithAgents(41), WithRounds(rounds)),
		QuorumSpec(0.1, WithTorus2D(20), WithAgents(41), WithRounds(rounds)),
	} {
		r, err := s.NewRun()
		if err != nil {
			t.Fatal(err)
		}
		round := 0
		publish := func() {
			round++
			r.publish(round, rounds)
		}
		for i := 0; i < len(r.ring); i++ {
			publish() // first use of each frame sizes its counts buffer
		}
		if avg := testing.AllocsPerRun(100, publish); avg != 0 {
			t.Errorf("%v: publish allocates %.1f times per round with no readers, want 0", s.Kind, avg)
		}
	}
}

// TestRunCancelledSnapshotRound pins the terminal snapshot of a
// cancelled run at the round its world actually executed, for every
// kind that steps a world: each round is published, so no republish
// after the loop is needed.
func TestRunCancelledSnapshotRound(t *testing.T) {
	base := []SpecOption{WithTorus2D(20), WithAgents(41), WithSeed(2), WithRounds(50_000_000)}
	for _, s := range []*Spec{
		DensitySpec(base...),
		IndependentSpec(base...),
		PropertySpec(append(base, WithTaggedCount(10))...),
		QuorumSpec(0.1, base...),
		AdaptiveQuorumSpec(0.1, base...), // theta = d: most agents never decide
	} {
		r, err := s.Start(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for snap := r.Snapshot(); snap.Round < 3; snap = r.Snapshot() {
			if snap.State.Terminal() {
				t.Fatalf("%v: run ended (%v) before it could be cancelled", s.Kind, snap.State)
			}
			runtime.Gosched()
		}
		r.Cancel()
		if err := r.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: Wait() = %v, want context.Canceled", s.Kind, err)
		}
		snap := r.Snapshot()
		if snap.State != StateCanceled || snap.Round != r.world.Round() {
			t.Fatalf("%v: terminal snapshot %v at round %d, world executed %d", s.Kind, snap.State, snap.Round, r.world.Round())
		}
		if len(snap.Estimates) != 41 {
			t.Fatalf("%v: terminal snapshot has %d estimates", s.Kind, len(snap.Estimates))
		}
	}
}
