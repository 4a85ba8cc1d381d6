// Package sim implements the paper's computational model (Section 2):
// a population of anonymous agents placed on a graph, proceeding in
// discrete synchronous rounds. In each round every agent takes a step
// according to its movement policy, and can then sense the number of
// other agents at its position via count(position), the model's only
// communication primitive.
//
// # Determinism invariant
//
// The engine is deterministic: every agent draws from a private
// rng.Stream split from the world seed (stored contiguously, one
// value per agent), so the same Config produces the same byte-for-byte
// results regardless of scheduling. The invariant is load-bearing and
// guarded by property tests: for a fixed seed, positions and all count
// queries are identical whether the world steps serially or with any
// StepParallel worker count, whether policies take the scalar, fused
// (BulkStepper), or batched-RNG fast path, and whether the occupancy
// index is dense or sparse.
//
// # Hot-state layout and batched randomness
//
// The per-round hot state is a strict structure of arrays (soa.go):
// positions, previous positions, and per-agent RNG streams are
// parallel flat slices indexed by agent id (World embeds hotState),
// so stepping kernels stream through contiguous memory with no
// per-agent pointer chasing. The batched kernels (stepBatched) split
// each round into two passes over that layout: rng.Uint64nEach /
// rng.FloatEach bulk-fill one draw per agent stream into scratch
// buffers reused for the world's lifetime, then the topology
// fast-path kernels (RandomStepsInto) turn draws into moves with
// arithmetic only — no interface dispatch, no data-dependent branches
// on the torus. The bulk fills obey a strict bit-identity contract:
// they advance each agent's stream exactly as the equivalent scalar
// draws would, including bounded-rejection behavior, so per-agent
// draw sequences — and therefore all positions and counts — are
// independent of which path executed. Scratch buffers are allocated
// once by ensureScratch (policy- and graph-gated), keeping the
// batched path at zero allocations per round.
//
// StepParallel splits agents into per-worker chunks rounded up to
// chunkAlign = 8 agents — one 64-byte cache line of int64 positions —
// so no two workers write the same cache line (no false sharing).
// Chunk boundaries never affect results, by the determinism
// invariant. Tiny worlds skip the pool entirely: when the agent count
// is below 2 per requested worker (any world with fewer than
// 2×workers agents), StepParallel falls back to the serial path,
// because handing a handful of agents to a goroutine pool costs more
// in synchronization than the work is worth. The threshold only
// selects an execution path — results are identical either way.
//
// # Spatial sharding (Config.Shards)
//
// Above worker-level parallelism sits spatial domain decomposition
// (sharded.go, internal/shard): Config.Shards > 1 partitions the
// graph's node-id space into K contiguous slabs (shard.Partition,
// row bands on a torus) and each shard exclusively owns the agents
// currently positioned inside its slab — their positions, previous
// positions, and rng streams live in per-shard SoA slabs, and each
// shard keeps its own occupancy index over only its slab's node
// range. A sharded round runs in two phases: every shard steps its
// own agents with the same batched kernels as the flat world,
// depositing agents that crossed a slab boundary into per-(src,dst)
// mailboxes; then each destination shard drains its mailboxes in
// fixed (source shard, insertion index) order. That fixed merge
// order, plus each agent carrying its private rng stream with it,
// makes sharded results bit-identical to the flat world for every
// shard and worker count — the property matrix steps shards ∈
// {1,2,7} against the flat reference. Because sharding cannot change
// results, Spec.Shards is excluded from the canonical fingerprint.
//
// Sharding pays off twice. It is the unit of multi-core work: with K
// shards, StepParallel(K) gives each worker whole-shard ownership, no
// shared writes, no false sharing, zero steady-state allocations.
// And it shrinks the occupancy problem: the dense-index memory budget
// applies per shard slab, so a graph too large for a flat dense index
// (the 16.8M-node 4096×4096 torus) gets dense per-slab indexes from a
// few shards up — a single-core structural win on the step+count
// round measured in BENCH_PR9.json. Shards = 0 (ShardAuto) resolves
// to the process default (SetDefaultShards, the CLI -shards flag),
// else GOMAXPROCS (capped at 64) for worlds of at least a million
// agents, else 1.
//
// # Occupancy index selection
//
// count(position) queries are served from an occupancy index with two
// interchangeable representations. When the graph's node count fits
// the dense memory budget (at most 1<<22 nodes, 32 MiB of cells), the
// index is a flat []cell array indexed by node id; larger graphs —
// including the paper's "A larger than the area agents traverse"
// regime with 10^12-node tori — use a sparse open-addressing table
// keyed by occupied node, stored as split key/cell arrays so probe
// loops touch 8-byte key slots and bulk queries batch their probe
// sequences (totalsInto). Config.Occupancy can force either choice
// (OccDense, OccSparse) for testing or tuning; OccAuto applies the
// budget rule. Both representations are maintained incrementally
// while the world steps: once a count query has built the index, each
// subsequent round only decrements the cell an agent left and
// increments the cell it entered, so Count/CountTagged/CountInGroup
// never trigger an O(agents) rebuild and allocate nothing in steady
// state. The dense update is a plain in-order scatter on purpose: a
// cache-blocked counting-sort variant was measured and lost at every
// reachable size (see applyMoves).
//
// # BulkStepper fast path
//
// Policies may additionally implement BulkStepper, whose StepMany
// advances a whole slice of agents in one call. Implementations must
// either move every agent exactly as the equivalent sequence of scalar
// Step calls would — consuming identical randomness from each agent's
// stream — or leave positions and streams untouched and report false,
// in which case the world falls back to per-agent stepping. All five
// built-in policies implement it over the arithmetic regular
// topologies (torus/ring/hypercube/complete), with degree lookups
// hoisted and the Policy.Step → Graph.Neighbor interface dispatch
// devirtualized into arithmetic-only inner loops; irregular graphs and
// worlds with per-agent policy overrides (SetPolicy) use the scalar
// path. Within a uniform-policy range the world prefers the batched
// two-pass kernels above, then a policy's fused StepMany, then scalar
// Step calls — all three bit-identical.
//
// StepParallel distributes either path across a persistent worker pool
// that is created lazily on first use and reused every round, so
// steady-state parallel stepping starts no goroutines and allocates
// nothing. With the index active, Step, StepParallel, and Count run at
// zero allocations per round.
//
// # Observation pipeline
//
// Estimators consume rounds through the streaming observation
// pipeline (pipeline.go) instead of issuing n scalar Count calls per
// round: Run(w, rounds, obs...) advances the world and hands each
// Observer a Round snapshot whose Counts/TaggedCounts/GroupCounts
// accessors serve the whole round's per-agent counts from the bulk
// CountsAllInto family, computed at most once per round into buffers
// reused for the run's lifetime. A full pipeline round — step,
// incremental index update, snapshots, observer callbacks — allocates
// nothing in steady state (pinned by alloc regression tests).
//
// Early stopping has two granularities. An observer returning Stop
// retires itself, and the run ends once every observer has stopped —
// the per-run anytime usage of the paper's Section 6.2. For per-agent
// stopping times, observers retire individual agents through the
// shared active mask (Round.Deactivate); the run ends when no agent
// remains active, and each agent's decision round is its stopping
// time.
//
// The pipeline preserves the determinism invariant: observers cannot
// influence stepping or snapshot contents, so results are independent
// of observer count and order. The one piece of observer-visible
// shared state, the active mask, follows an ownership rule — each
// agent is deactivated (and has its Active bit read) by at most one
// observer — which keeps multi-observer runs order-independent too.
package sim
