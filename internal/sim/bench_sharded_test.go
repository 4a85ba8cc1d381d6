package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"antdensity/internal/benchenv"
	"antdensity/internal/topology"
)

// Sharded-stepping benchmarks: the PR 9 spatial domain decomposition
// on the 4096×4096 torus (16.8M nodes — sparse when flat, dense slabs
// from 4 shards up, since the OccAuto budget applies per shard). One
// op is a synchronous round via StepParallel(shards); shards=1 is the
// flat serial baseline. Default population is 1M agents so the CI
// `-benchtime=1x` smoke stays cheap; set SHARD_BENCH_10M=1 for the
// 10M-agent configuration recorded in BENCH_PR9.json. Numbers from a
// machine whose GOMAXPROCS exceeds its hardware CPUs measure
// oversubscription, not scaling — see the "env" block in
// BENCH_PR9.json and internal/benchenv.

// benchShardAgents resolves the benchmark population: 1M by default,
// 10M with SHARD_BENCH_10M=1, and a small population under the race
// detector (the CI race smoke runs every BenchmarkWorld* at 1x, and a
// race-instrumented 1M-agent build is all setup cost).
func benchShardAgents() int {
	if raceEnabled {
		return 1 << 16
	}
	if os.Getenv("SHARD_BENCH_10M") != "" {
		return 10 << 20
	}
	return 1 << 20
}

func BenchmarkWorldStepSharded(b *testing.B) {
	g := topology.MustTorus(2, 4096)
	agents := benchShardAgents()
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("torus2d-4096/%d/s%d", agents, shards), func(b *testing.B) {
			w := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 1, Shards: shards})
			defer w.Close()
			w.StepParallel(shards) // warm pool, scratch, and outbox capacities
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.StepParallel(shards)
			}
		})
	}
}

// BenchmarkWorldStepCountSharded is the full Algorithm 1 inner round
// (step + every agent's count) sharded: it additionally exercises the
// incremental slab occupancy through migration and the shard-local
// bulk count reduction. On this graph the flat baseline pays the
// sparse hash index while 4 shards get dense slabs — the structural
// win of partitioning, on top of the parallelism.
func BenchmarkWorldStepCountSharded(b *testing.B) {
	g := topology.MustTorus(2, 4096)
	agents := benchShardAgents()
	counts := make([]int, agents)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("torus2d-4096/%d/s%d", agents, shards), func(b *testing.B) {
			w := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 1, Shards: shards})
			defer w.Close()
			w.CountsAllInto(counts) // build the live index
			w.StepParallel(shards)
			w.CountsAllInto(counts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.StepParallel(shards)
				w.CountsAllInto(counts)
			}
		})
	}
}

// shardScalingReport is the JSON written by TestShardScaling (the CI
// shard-scaling gate): wall-clock per round for the flat serial world,
// the 4-shard 4-worker world, and (report-only) the flat world forced
// onto the dense index stepped by 4 workers, with the benchenv block
// making oversubscribed numbers machine-detectable.
type shardScalingReport struct {
	Env               benchenv.Env `json:"env"`
	Graph             string       `json:"graph"`
	Agents            int          `json:"agents"`
	Rounds            int          `json:"rounds"`
	FlatNsOp          int64        `json:"flat_ns_per_round"`
	Shard4NsOp        int64        `json:"shards4_ns_per_round"`
	FlatDensePar4NsOp int64        `json:"flat_dense_par4_ns_per_round"`
	Speedup           float64      `json:"speedup"`
}

// TestShardScaling is the CI multi-core regression gate: on a runner
// with >= 4 CPUs, a 1M-agent 4096×4096 torus stepped as 4 shards by 4
// workers must beat the flat serial world. It also times a flat world
// forced onto the dense index at StepParallel(4) — the index the 4
// shards get, at equal parallelism — and reports it without gating,
// so the report shows whether partitioning beats a flat world with
// as many workers. Every arm times stepping only: no arm queries
// counts, so no arm maintains an occupancy index. Gated behind
// SHARD_SCALING=1
// because wall-clock assertions are meaningless on loaded or
// single-core machines (the dev container has one CPU); CI runs it on
// the multi-core runner. SHARD_SCALING_OUT names a JSON report path.
func TestShardScaling(t *testing.T) {
	if os.Getenv("SHARD_SCALING") == "" {
		t.Skip("set SHARD_SCALING=1 to run the wall-clock shard scaling gate")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("need >= 4 CPUs for an honest scaling measurement, have %d", n)
	}
	g := topology.MustTorus(2, 4096)
	const agents = 1 << 20
	const rounds = 40
	measure := func(shards, workers int, occ OccupancyIndex) time.Duration {
		w := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 1, Shards: shards, Occupancy: occ})
		defer w.Close()
		best := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
			for r := 0; r < 3; r++ { // warm pool, scratch, outboxes
				w.StepParallel(workers)
			}
			start := time.Now()
			for r := 0; r < rounds; r++ {
				w.StepParallel(workers)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	flat := measure(1, 1, OccAuto)
	sharded := measure(4, 4, OccAuto)
	flatDense := measure(1, 4, OccDense)
	speedup := float64(flat) / float64(sharded)
	t.Logf("flat serial: %v/round, shards=4 workers=4: %v/round, speedup %.2fx; flat dense workers=4: %v/round",
		flat/rounds, sharded/rounds, speedup, flatDense/rounds)
	if out := os.Getenv("SHARD_SCALING_OUT"); out != "" {
		rep := shardScalingReport{
			Env:               benchenv.Capture(),
			Graph:             "torus2d-4096",
			Agents:            agents,
			Rounds:            rounds,
			FlatNsOp:          flat.Nanoseconds() / rounds,
			Shard4NsOp:        sharded.Nanoseconds() / rounds,
			FlatDensePar4NsOp: flatDense.Nanoseconds() / rounds,
			Speedup:           speedup,
		}
		b, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if sharded >= flat {
		t.Errorf("shards=4 at 4 workers (%v) is not faster than shards=1 serial (%v)", sharded, flat)
	}
}
