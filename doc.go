// Package antdensity reproduces "Ant-Inspired Density Estimation via
// Random Walks" (Musco, Su, Lynch; PODC 2016 / PNAS 2017). Anonymous
// agents random-walking on a graph estimate their population density
// from encounter rates alone; this module implements the paper's
// model, algorithms, analysis experiments, and applications.
//
// The public API (v2) is built around three facade types declared at
// the package root:
//
//   - Spec (spec.go) — a declarative, validated description of one
//     estimation run: every estimator (density, independent baseline,
//     property frequency, fixed and adaptive quorum, network size) is
//     a Kind plus typed config (graph, agents, horizon, noise,
//     tagging, stopping rule), built with functional options
//     (DensitySpec, QuorumSpec, ...). Validation errors name the
//     offending field and its valid range.
//   - Run (run.go) — a compiled Spec executing on its own goroutine
//     with context cancellation (cooperative, between rounds, via
//     sim.RunContext — a cancelled run returns within one round and
//     leaves its world consistent) and live anytime Snapshots
//     (current round, per-agent estimates with confidence bands,
//     progress) readable from any goroutine without blocking the
//     stepping loop. Each published round only captures its state
//     (for density and quorum runs, a copy of the collision counts)
//     into a recycled frame; the first Snapshot read of a round
//     derives its estimates and bands. Results come back typed
//     (Output) and structured (RunResult, the internal/results
//     model).
//   - Manager (manager.go) — schedules many concurrent Runs over a
//     bounded worker pool with fair FIFO admission, a bounded queue
//     (SetQueueLimit / ErrQueueFull), and a result cache keyed by the
//     Spec's canonical fingerprint (spechash.go, SubmitDeduped):
//     the stack is deterministic, so an identical (Spec, seed) can be
//     served from an existing run. `antdensity serve` exposes it over
//     HTTP+JSON (POST/GET/DELETE /v1/runs, GET /v1/runs/{id}/result,
//     SSE streaming via GET /v1/runs/{id}/events) with durable runs:
//     an append-only JSONL journal (internal/journal) replayed on
//     startup, so completed results survive restarts and interrupted
//     runs are re-run under their original ids.
//
// The implementation lives under internal/:
//
//   - internal/core — Algorithm 1 (encounter-rate estimation),
//     Algorithm 4 (independent-sampling baseline), property-frequency
//     estimation, and the paper's closed-form bounds.
//   - internal/sim — the synchronous multi-agent model of Section 2.
//     Its hot path is allocation-free in steady state and laid out as
//     a strict structure of arrays: positions, previous positions, and
//     per-agent RNG streams are parallel flat slices, stepped by
//     batched kernels that bulk-fill randomness (internal/rng's
//     Uint64nEach/FloatEach) and apply moves with branch-free
//     arithmetic; an incrementally maintained occupancy index (a dense
//     array, or a split-array open-address table, chosen by a
//     memory-budget rule) serves counts; a
//     persistent worker pool behind StepParallel splits agents on
//     cache-line-aligned chunk boundaries. For 10M+ agent worlds,
//     Config.Shards (Spec.WithShards, CLI -shards) partitions the
//     graph into contiguous node-range slabs via internal/shard: each
//     shard owns its agents' hot state and a slab-local occupancy
//     index, rounds run as shard-local batched stepping plus
//     deterministic cross-shard migration through per-(src,dst)
//     mailboxes merged in fixed order, and the dense-index memory
//     budget applies per slab — so graphs too large for a flat dense
//     index get dense per-shard indexes. Every fast path is proven
//     bit-identical to the scalar reference by a property-test matrix
//     (batched × fused × scalar, dense × sparse, serial × parallel,
//     shards ∈ {1,2,7}) — the bulk RNG fills advance each agent's
//     stream exactly as scalar draws would, and migrants carry their
//     private streams with them, so results never depend on which
//     path executed or how the world is partitioned (sharding is
//     excluded from the Spec fingerprint for exactly this reason).
//
// Estimation runs through sim's streaming observation pipeline: Run
// advances the world round by round and hands every registered
// Observer the whole round's counts via shared zero-allocation bulk
// snapshots (CountsAllInto and friends). core's collision counting,
// quorum's threshold detection, and netsize's degree-weighted
// collision totals are all observers on this one loop, so each layer
// inherits the sim layer's speed; observers can stop a run early
// (Section 6.2's anytime usage) and retire individual agents through a
// per-agent active mask, giving per-agent stopping times (experiment
// E26, `antdensity quorum -adaptive`). Observer order never affects
// results — see the sim package documentation for the contract.
//   - internal/topology — tori, rings, hypercubes, complete graphs,
//     random regular expanders, adjacency graphs, spectral tools, and
//     the devirtualized fast-path step kernels used by sim and walk.
//   - internal/walk — re-collision / equalization measurements.
//   - internal/netsize, internal/socialnet — the Section 5.1
//     network-size application and its synthetic networks.
//   - internal/experiments — one registered experiment per paper
//     claim, declared as data: parameter axes, a cell function that
//     measures one grid point, and a body that emits a structured
//     report; registry.go holds the index and `antdensity list`
//     prints it.
//   - internal/results — the typed results model (Result/Series/Cell
//     with value, 95% CI, trial count, and unit) every renderer
//     consumes: text tables (internal/expfmt), JSON, and CSV.
//   - internal/journal — the append-only JSONL run journal behind
//     `antdensity serve -data-dir`: fsync'd submit/terminal records,
//     torn-tail and interior-corruption recovery, and the replay
//     reduction that classifies runs as completed, canceled, failed,
//     or interrupted.
//   - internal/adversary — Byzantine fault injection (Spec.Adversary,
//     `-adversary kind:fraction[:param][:seed]`): per-agent fault
//     strategies applied as core report filters over the observation
//     pipeline, plus the co-location dishonesty detector scored by
//     TPR/FPR. Robust aggregators (median, trimmed mean,
//     median-of-means) live in internal/stats; trimmed quorum votes
//     in internal/quorum; experiments E27-E29 quantify all three.
//   - internal/analysis — the repo's own static-analysis suite,
//     run as the `go run ./cmd/antlint ./...` CI gate: mapiter
//     (no map-iteration-order dependence in result-affecting
//     packages), rngpurity (no ambient randomness, wall clocks, or
//     mutable globals there), fingerprintcover (every Spec field
//     hashed by Fingerprint or explicitly excluded — the result
//     cache's integrity proof), and noalloc (functions annotated
//     //antlint:noalloc stay free of allocating constructs). Built
//     on go/ast + go/types with imports resolved from `go list
//     -export` data, so it needs nothing beyond the toolchain.
//
// Every experiment's Monte Carlo loop runs through the shared
// parallel trial runner in internal/experiments/runner.go: a
// TrialSpec names a family of independent trials, RunTrials fans them
// out over a worker pool (RunConfig.Workers, default GOMAXPROCS), and
// an ExperimentResult aggregates samples, named per-trial values, and
// Monte Carlo curves through internal/stats. Each trial draws all of
// its randomness from a private rng substream derived from the spec's
// base seed and the trial index, and aggregation runs in trial-index
// order, so every reported number is bit-identical for every worker
// count — `antdensity run -workers=1` and `-workers=64` print the
// same bytes. New scenarios are a ~30-line TrialSpec instead of a
// hand-rolled trial loop.
//
// The benchmarks in bench_test.go regenerate every experiment table
// (a -workers flag selects the trial-runner width); the cmd/antdensity
// CLI runs them interactively via `run [-workers W] [-format
// text|json|csv]` and executes user-supplied axis cross-products via
// `sweep <exp-id> -axis name=v1,v2 | name=lo:hi:step`, streaming one
// typed results row per grid cell through the same runner.
package antdensity
