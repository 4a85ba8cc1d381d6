package antdensity_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"antdensity"
	"antdensity/internal/core"
	"antdensity/internal/netsize"
	"antdensity/internal/quorum"
	"antdensity/internal/sim"
	"antdensity/internal/topology"
)

// newTestWorld builds a fresh world with a fixed config so the direct
// internal path and the v2 Spec path see identical randomness.
func newTestWorld(t *testing.T, agents int, seed uint64) *sim.World {
	t.Helper()
	w, err := sim.NewWorld(sim.Config{Graph: topology.MustTorus(2, 20), NumAgents: agents, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// sameFloats compares float slices bit-for-bit (NaNs equal).
func sameFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v (bit mismatch)", name, i, got[i], want[i])
		}
	}
}

// runSpec compiles, starts, and drains a spec.
func runSpec(t *testing.T, s *antdensity.Spec) antdensity.Output {
	t.Helper()
	r, err := s.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	out, err := r.Output()
	if err != nil {
		t.Fatal(err)
	}
	if r.State() != antdensity.StateDone {
		t.Fatalf("terminal state = %v, want done", r.State())
	}
	return out
}

// The spec-vs-direct equivalence tests: for every estimator, the
// internal algorithm driven directly on a world and a Spec run on the
// same graph, agent count, and seed must produce bit-identical
// outputs.

func TestSpecEquivalenceDensity(t *testing.T) {
	const agents, rounds, seed = 41, 400, 7
	direct, err := core.Algorithm1(newTestWorld(t, agents, seed), rounds)
	if err != nil {
		t.Fatal(err)
	}
	out := runSpec(t, antdensity.DensitySpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(agents),
		antdensity.WithSeed(seed),
		antdensity.WithRounds(rounds),
	))
	sameFloats(t, "spec vs direct", out.Estimates, direct)
}

func TestSpecEquivalenceDensityNoisy(t *testing.T) {
	const agents, rounds, seed = 41, 400, 7
	direct, err := core.Algorithm1(newTestWorld(t, agents, seed), rounds, core.WithNoise(0.8, 0.02, 11))
	if err != nil {
		t.Fatal(err)
	}
	out := runSpec(t, antdensity.DensitySpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(agents),
		antdensity.WithSeed(seed),
		antdensity.WithRounds(rounds),
		antdensity.WithSensingNoise(0.8, 0.02, 11),
	))
	sameFloats(t, "spec vs direct", out.Estimates, direct)
}

func TestSpecEquivalenceIndependent(t *testing.T) {
	const agents, rounds, seed, policySeed = 51, 120, 5, 13
	direct, err := core.Algorithm4(newTestWorld(t, agents, seed), rounds, policySeed)
	if err != nil {
		t.Fatal(err)
	}
	out := runSpec(t, antdensity.IndependentSpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(agents),
		antdensity.WithSeed(seed),
		antdensity.WithRounds(rounds),
		antdensity.WithPolicySeed(policySeed),
	))
	sameFloats(t, "spec vs direct", out.Estimates, direct)
}

func TestSpecEquivalenceProperty(t *testing.T) {
	const agents, rounds, seed, tagged = 60, 300, 9, 15
	wd := newTestWorld(t, agents, seed)
	for i := 0; i < tagged; i++ {
		wd.SetTagged(i, true)
	}
	direct, err := core.PropertyFrequency(wd, rounds)
	if err != nil {
		t.Fatal(err)
	}
	out := runSpec(t, antdensity.PropertySpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(agents),
		antdensity.WithSeed(seed),
		antdensity.WithRounds(rounds),
		antdensity.WithTaggedCount(tagged),
	))
	sameFloats(t, "spec density", out.Property.Density, direct.Density)
	sameFloats(t, "spec property density", out.Property.PropertyDensity, direct.PropertyDensity)
	sameFloats(t, "spec frequency", out.Property.Frequency, direct.Frequency)
}

func TestSpecEquivalenceQuorum(t *testing.T) {
	const agents, rounds, seed = 46, 500, 3
	const threshold = 0.1
	direct, err := quorum.Decide(newTestWorld(t, agents, seed), threshold, rounds)
	if err != nil {
		t.Fatal(err)
	}
	out := runSpec(t, antdensity.QuorumSpec(threshold,
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(agents),
		antdensity.WithSeed(seed),
		antdensity.WithRounds(rounds),
	))
	if len(out.Votes) != len(direct) {
		t.Fatalf("spec votes = %d, want %d", len(out.Votes), len(direct))
	}
	for i := range direct {
		if out.Votes[i] != direct[i] {
			t.Fatalf("spec vote[%d] = %v, want %v", i, out.Votes[i], direct[i])
		}
	}
}

func TestSpecEquivalenceAdaptiveQuorum(t *testing.T) {
	const agents, maxRounds, seed = 91, 4000, 3
	const threshold, delta, c1 = 0.1, 0.05, 0.6
	direct, err := quorum.AnytimeDecide(newTestWorld(t, agents, seed), threshold, delta, c1, maxRounds)
	if err != nil {
		t.Fatal(err)
	}
	s := antdensity.AdaptiveQuorumSpec(threshold,
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(agents),
		antdensity.WithSeed(seed),
		antdensity.WithRounds(maxRounds),
		antdensity.WithConfidence(delta),
		antdensity.WithBandConstant(c1),
	)
	got := runSpec(t, s).Anytime
	if got.Rounds != direct.Rounds {
		t.Fatalf("rounds = %d, want %d", got.Rounds, direct.Rounds)
	}
	for i := range direct.Decision {
		if got.Decision[i] != direct.Decision[i] || got.StopRound[i] != direct.StopRound[i] {
			t.Fatalf("agent %d: decision/stop = %d/%d, want %d/%d",
				i, got.Decision[i], got.StopRound[i], direct.Decision[i], direct.StopRound[i])
		}
	}
}

func TestSpecEquivalenceNetworkSize(t *testing.T) {
	g := topology.MustTorus(3, 7) // odd side: non-bipartite
	cfg := netsize.Config{Walkers: 40, Steps: 80, Stationary: true, Seed: 13}
	direct, err := netsize.Estimate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := runSpec(t, antdensity.NetworkSizeSpec(
		antdensity.WithGraph(g),
		antdensity.WithWalkers(40),
		antdensity.WithRounds(80),
		antdensity.WithStationary(),
		antdensity.WithSeed(13),
	)).NetworkSize
	if math.Float64bits(got.Size) != math.Float64bits(direct.Size) ||
		math.Float64bits(got.C) != math.Float64bits(direct.C) ||
		math.Float64bits(got.InvAvgDegree) != math.Float64bits(direct.InvAvgDegree) ||
		got.Queries != direct.Queries {
		t.Fatalf("spec result %+v != direct %+v", got, direct)
	}
}

// TestRunCancellation checks the cancellation contract: a mid-run
// cancel surfaces context.Canceled and stops within a round. The
// terminal snapshot's exact round is pinned by
// TestRunCancelledSnapshotRound; that a cancelled world stays
// resumable is a sim.RunContext property, pinned by internal/sim's
// TestRunContextResumesAfterCancel.
func TestRunCancellation(t *testing.T) {
	s := antdensity.DensitySpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(41),
		antdensity.WithSeed(2),
		antdensity.WithRounds(50_000_000),
	)
	r, err := s.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := r.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// Let it make progress first.
	deadline := time.Now().Add(10 * time.Second)
	for r.Snapshot().Round < 3 {
		if time.Now().After(deadline) {
			t.Fatal("run made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := r.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait() = %v, want context.Canceled", err)
	}
	if !errors.Is(r.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", r.Err())
	}
	if got := r.State(); got != antdensity.StateCanceled {
		t.Fatalf("State() = %v, want canceled", got)
	}
	snap := r.Snapshot()
	if snap.State != antdensity.StateCanceled || snap.Err == "" {
		t.Fatalf("terminal snapshot = %+v", snap)
	}
	if _, err := r.Output(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Output() error = %v, want context.Canceled", err)
	}
	if _, err := r.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result() error = %v, want context.Canceled", err)
	}

}

// TestRunCancelBeforeStart checks that a pending run can be
// cancelled, finishing immediately without executing.
func TestRunCancelBeforeStart(t *testing.T) {
	s := antdensity.DensitySpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(5),
		antdensity.WithRounds(100),
	)
	r, err := s.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	r.Cancel()
	r.Cancel() // idempotent
	if err := r.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait() = %v, want context.Canceled", err)
	}
	if snap := r.Snapshot(); snap.Round != 0 {
		t.Fatalf("cancelled-before-start run executed %d rounds", snap.Round)
	}
	if err := r.Start(context.Background()); err == nil {
		t.Fatal("Start() after Cancel() succeeded")
	}
}

// TestRunDeadline checks that a context deadline cancels like an
// explicit cancel.
func TestRunDeadline(t *testing.T) {
	s := antdensity.DensitySpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(41),
		antdensity.WithRounds(50_000_000),
	)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	r, err := s.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait() = %v, want context.DeadlineExceeded", err)
	}
	if got := r.State(); got != antdensity.StateCanceled {
		t.Fatalf("State() = %v, want canceled", got)
	}
}

// TestRunSnapshotRace hammers Snapshot from several goroutines while
// the run is stepping — the race detector (CI runs the suite with
// -race) proves snapshot reads never synchronize with the hot path.
func TestRunSnapshotRace(t *testing.T) {
	s := antdensity.DensitySpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(41),
		antdensity.WithSeed(4),
		antdensity.WithRounds(3000),
	)
	r, err := s.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	readers := runtime.GOMAXPROCS(0) + 2
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastRound := -1
			for {
				snap := r.Snapshot()
				if snap.Round < lastRound {
					t.Error("snapshot round went backwards")
					return
				}
				lastRound = snap.Round
				// Touch the shared slices the way a real consumer
				// would; the published snapshot must be immutable.
				for _, e := range snap.Estimates {
					_ = e
				}
				if snap.State.Terminal() {
					return
				}
			}
		}()
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.State != antdensity.StateDone || snap.Round != 3000 || snap.Progress != 1 {
		t.Fatalf("final snapshot = %+v", snap)
	}
	if len(snap.Estimates) != 41 || len(snap.CIHalf) != 41 {
		t.Fatalf("final snapshot slices: %d estimates, %d ci", len(snap.Estimates), len(snap.CIHalf))
	}
	if snap.Mean <= 0 {
		t.Fatalf("final mean estimate = %v", snap.Mean)
	}
}

// TestRunSnapshotReadersEveryRound has several goroutines read the
// snapshot after every publication while the run steps (the suite
// runs under -race in CI): each reader sees rounds only move forward,
// every snapshot is internally consistent, and readers that saw the
// same round saw bit-identical values.
func TestRunSnapshotReadersEveryRound(t *testing.T) {
	const agents, rounds = 41, 2000
	s := antdensity.QuorumSpec(0.1,
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(agents),
		antdensity.WithSeed(8),
		antdensity.WithRounds(rounds),
	)
	r, err := s.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	const readers = 4
	seen := make([]map[int]antdensity.Snapshot, readers)
	var wg sync.WaitGroup
	for g := range seen {
		seen[g] = map[int]antdensity.Snapshot{}
		wg.Add(1)
		go func(seen map[int]antdensity.Snapshot) {
			defer wg.Done()
			last := -1
			for {
				ch := r.Updated()
				snap := r.Snapshot()
				if snap.Round < last {
					t.Errorf("snapshot round went backwards: %d after %d", snap.Round, last)
					return
				}
				last = snap.Round
				if snap.Round > 0 {
					if len(snap.Estimates) != agents || len(snap.CIHalf) != agents {
						t.Errorf("round %d: %d estimates, %d bands", snap.Round, len(snap.Estimates), len(snap.CIHalf))
						return
					}
					yes := 0
					for _, e := range snap.Estimates {
						if e >= 0.1 {
							yes++
						}
					}
					if yes != snap.YesVotes {
						t.Errorf("round %d: YesVotes %d, estimates say %d", snap.Round, snap.YesVotes, yes)
						return
					}
				}
				seen[snap.Round] = snap
				if snap.State.Terminal() {
					return
				}
				select {
				case <-ch:
				case <-r.Done():
				}
			}
		}(seen[g])
	}
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for g := 1; g < readers; g++ {
		for round, a := range seen[g] {
			b, ok := seen[0][round]
			if !ok || round == 0 {
				continue
			}
			sameFloats(t, "estimates across readers", a.Estimates, b.Estimates)
			sameFloats(t, "bands across readers", a.CIHalf, b.CIHalf)
			if math.Float64bits(a.Mean) != math.Float64bits(b.Mean) || a.YesVotes != b.YesVotes {
				t.Fatalf("round %d: readers disagree on mean or votes", round)
			}
		}
	}
	if final := r.Snapshot(); final.Round != rounds || final.State != antdensity.StateDone {
		t.Fatalf("final snapshot = round %d, %v", final.Round, final.State)
	}
}

// TestRunTerminalSnapshotFresh pins that a run which stops early
// (adaptive quorum, every agent decided) reports its true final round
// in the terminal snapshot.
func TestRunTerminalSnapshotFresh(t *testing.T) {
	s := antdensity.AdaptiveQuorumSpec(0.05, // d = 0.1 >> theta: decides fast
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(41),
		antdensity.WithSeed(3),
		antdensity.WithRounds(100000),
		antdensity.WithBandConstant(0.6),
	)
	r, err := s.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Output()
	if err != nil {
		t.Fatal(err)
	}
	if out.Rounds >= 100000 {
		t.Fatalf("run did not stop early (%d rounds); test needs an early stop", out.Rounds)
	}
	snap := r.Snapshot()
	if snap.Round != out.Rounds {
		t.Fatalf("terminal snapshot round %d != executed rounds %d", snap.Round, out.Rounds)
	}
	if snap.Decided != 41 {
		t.Fatalf("terminal snapshot decided = %d", snap.Decided)
	}
}

// TestRunResultStructured checks the schema-stable structured result.
func TestRunResultStructured(t *testing.T) {
	out := runSpec(t, antdensity.QuorumSpec(0.05,
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(41),
		antdensity.WithSeed(6),
		antdensity.WithRounds(400),
	))
	if len(out.Votes) != 41 {
		t.Fatalf("votes = %d", len(out.Votes))
	}
	r, err := antdensity.QuorumSpec(0.05,
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(41),
		antdensity.WithSeed(6),
		antdensity.WithRounds(400),
	).Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "quorum" {
		t.Errorf("result id = %q", res.ID)
	}
	if len(res.Series) != 1 || res.Series[0].NumRows() != 41 {
		t.Fatalf("result series shape unexpected: %+v", res.Series)
	}
	for _, m := range []string{"rounds", "threshold", "yes_votes", "vote_fraction", "majority"} {
		if _, ok := res.Metric(m); !ok {
			t.Errorf("result missing metric %q", m)
		}
	}
}

// TestRunShardInvariance pins shard-transparency at the facade: the
// same Spec run flat, sharded serially, and sharded with a prime shard
// count yields bit-identical per-agent estimates, because sharding is
// execution layout only (the shards=1-vs-K twin of the workers=1-vs-N
// invariant, proven at the sim layer by the property matrix).
func TestRunShardInvariance(t *testing.T) {
	build := func(k int) *antdensity.Spec {
		return antdensity.DensitySpec(
			antdensity.WithTorus2D(20),
			antdensity.WithAgents(41),
			antdensity.WithSeed(7),
			antdensity.WithRounds(150),
			antdensity.WithShards(k),
		)
	}
	base := runSpec(t, build(1))
	for _, k := range []int{2, 7} {
		out := runSpec(t, build(k))
		if out.Rounds != base.Rounds {
			t.Fatalf("shards=%d ran %d rounds, flat ran %d", k, out.Rounds, base.Rounds)
		}
		sameFloats(t, "sharded estimates", out.Estimates, base.Estimates)
	}
}
