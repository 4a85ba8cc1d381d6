package sim

import (
	"fmt"
	"sync/atomic"

	"antdensity/internal/rng"
	"antdensity/internal/shard"
	"antdensity/internal/topology"
)

// Placement assigns agent i an initial position. The paper's model
// places each agent independently and uniformly at random, which
// UniformPlacement implements; ClusteredPlacement realizes the
// non-uniform setting discussed in Section 6.1.
type Placement func(i int, g topology.Graph, s *rng.Stream) int64

// UniformPlacement places every agent at an independent uniformly
// random node — the paper's standing assumption (Section 2).
func UniformPlacement(_ int, g topology.Graph, s *rng.Stream) int64 {
	return topology.RandomNode(g, s)
}

// ClusteredPlacement returns a Placement that confines initial
// positions to the fraction frac of the node space [0, frac*A). On a
// torus this is a contiguous slab, modeling the "many agents
// concentrated in a small area" scenario of Section 6.1.
//
// The returned Placement memoizes the slab width per graph (behind an
// atomic pointer, so sharing it across concurrently constructed worlds
// is safe); the per-agent path is a single bounded draw.
func ClusteredPlacement(frac float64) Placement {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("sim: cluster fraction %v outside (0, 1]", frac))
	}
	type slab struct {
		g    topology.Graph
		span uint64
	}
	var cached atomic.Pointer[slab]
	return func(_ int, g topology.Graph, s *rng.Stream) int64 {
		c := cached.Load()
		if c == nil || c.g != g {
			span := int64(frac * float64(g.NumNodes()))
			if span < 1 {
				span = 1
			}
			c = &slab{g: g, span: uint64(span)}
			cached.Store(c)
		}
		return int64(s.Uint64n(c.span))
	}
}

// FixedPlacement places every agent at the given node.
func FixedPlacement(node int64) Placement {
	return func(_ int, _ topology.Graph, _ *rng.Stream) int64 { return node }
}

// Config configures a World.
type Config struct {
	// Graph is the topology agents move on. Required.
	Graph topology.Graph
	// NumAgents is the total number of agents (the paper's n+1).
	// Must be >= 1.
	NumAgents int
	// Seed determines all randomness in the world.
	Seed uint64
	// Placement assigns initial positions; nil means
	// UniformPlacement.
	Placement Placement
	// Policy is the default movement policy for all agents; nil means
	// RandomWalk. Individual agents can be overridden with
	// World.SetPolicy.
	Policy Policy
	// Occupancy selects the occupancy-index representation; the zero
	// value OccAuto picks the dense array when the graph fits the
	// memory budget and the sparse map otherwise. Both give identical
	// results; see the package documentation.
	Occupancy OccupancyIndex
	// Positions, when non-nil, fixes every agent's initial position
	// directly (length must equal NumAgents) and Placement is ignored.
	// Together with Streams it lets callers that predate the sim layer
	// (netsize's walkers) reproduce their historical randomness
	// bit-for-bit on top of World.
	Positions []int64
	// Streams, when non-nil, supplies every agent's private rng stream
	// (length must equal NumAgents) instead of deriving them from Seed.
	// The world copies the slice; Seed is then unused except by
	// components that read it separately.
	Streams []rng.Stream
	// Shards selects the spatial domain decomposition: the world is
	// split into this many contiguous node-range shards (row-band tiles
	// on tori), each owning the hot state, occupancy slab, and rng
	// streams of the agents currently inside it, with a deterministic
	// cross-shard migration phase every round. The zero value ShardAuto
	// picks by agent count and GOMAXPROCS (see SetDefaultShards); 1
	// forces the flat single-shard path. Results are bit-identical for
	// every shard count — sharding changes execution layout, never
	// output.
	Shards int
}

// parallelMinAgents is the StepParallel serial-fallback threshold on
// flat worlds: with fewer than this many agents per requested worker
// the per-worker wake/wait overhead exceeds the work, so the round
// runs serially. Sharded worlds ignore it: their parallel grain is the
// shard, fixed at construction.
const parallelMinAgents = 2

// World is a synchronous multi-agent simulation. It tracks agent
// positions, steps all agents once per round, and serves the model's
// count(position) collision queries from an incrementally maintained
// occupancy index.
type World struct {
	graph    topology.Graph
	policies []Policy // per-agent overrides; nil until the first SetPolicy
	uniform  Policy   // shared policy when no SetPolicy override exists; enables bulk stepping
	hotState          // SoA per-agent state: pos/prev/streams + batched-RNG scratch (see soa.go)
	tagged   []bool
	groups   []int32
	occ      occupancy
	occDirty bool
	round    int
	numTag   int
	numGroup map[int32]int
	pool     *stepPool
	// sh is non-nil in sharded mode (sharded.go): slabs own the
	// authoritative hot state and occupancy, and the embedded hotState
	// keeps only pos as an id-indexed position mirror.
	sh *shardedState
}

type cell struct {
	total  int32
	tagged int32
}

// groupKey indexes the per-group occupancy map by (position, group).
type groupKey struct {
	pos   int64
	group int32
}

// NewWorld creates a world per cfg, places all agents, and builds the
// initial occupancy index (the paper counts collisions at the end of
// each round, after stepping; position sensing before the first Step
// reflects initial placement).
func NewWorld(cfg Config) (*World, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("sim: Config.Graph is required")
	}
	if cfg.NumAgents < 1 {
		return nil, fmt.Errorf("sim: Config.NumAgents must be >= 1, got %d", cfg.NumAgents)
	}
	if cfg.Positions != nil && len(cfg.Positions) != cfg.NumAgents {
		return nil, fmt.Errorf("sim: Config.Positions has %d entries for %d agents", len(cfg.Positions), cfg.NumAgents)
	}
	if cfg.Streams != nil && len(cfg.Streams) != cfg.NumAgents {
		return nil, fmt.Errorf("sim: Config.Streams has %d entries for %d agents", len(cfg.Streams), cfg.NumAgents)
	}
	placement := cfg.Placement
	if placement == nil {
		placement = UniformPlacement
	}
	var policy Policy = RandomWalk{}
	if cfg.Policy != nil {
		policy = cfg.Policy
	}
	shards, err := resolveShardCount(cfg)
	if err != nil {
		return nil, err
	}
	var part *shard.Partition
	if shards > 1 {
		if cfg.NumAgents > shardLimitAgents {
			return nil, fmt.Errorf("sim: sharded worlds support at most %d agents, got %d", shardLimitAgents, cfg.NumAgents)
		}
		p, err := shard.New(cfg.Graph, shards)
		if err != nil {
			return nil, err
		}
		if p.K() >= 2 {
			part = p
		}
	}
	root := rng.New(cfg.Seed)
	w := &World{
		graph:   cfg.Graph,
		uniform: policy,
		hotState: hotState{
			pos:     make([]int64, cfg.NumAgents),
			prev:    make([]int64, cfg.NumAgents),
			streams: make([]rng.Stream, cfg.NumAgents),
		},
		tagged:   make([]bool, cfg.NumAgents),
		groups:   make([]int32, cfg.NumAgents),
		numGroup: make(map[int32]int),
	}
	if err := w.initOcc(cfg.Occupancy, cfg.NumAgents, part); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.NumAgents; i++ {
		if cfg.Streams != nil {
			w.streams[i] = cfg.Streams[i]
		} else {
			w.streams[i] = root.SplitValue(uint64(i))
		}
		if cfg.Positions != nil {
			w.pos[i] = cfg.Positions[i]
		} else {
			w.pos[i] = placement(i, cfg.Graph, &w.streams[i])
		}
		if w.pos[i] < 0 || w.pos[i] >= cfg.Graph.NumNodes() {
			return nil, fmt.Errorf("sim: placement put agent %d at %d, outside [0, %d)", i, w.pos[i], cfg.Graph.NumNodes())
		}
	}
	if part != nil {
		w.initShards(part)
	}
	w.occDirty = true
	return w, nil
}

// MustWorld is like NewWorld but panics on error; for tests and
// examples with constant configs.
func MustWorld(cfg Config) *World {
	w, err := NewWorld(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// Graph returns the topology agents move on.
func (w *World) Graph() topology.Graph { return w.graph }

// NumAgents returns the total number of agents.
func (w *World) NumAgents() int { return len(w.pos) }

// Round returns the number of completed rounds.
func (w *World) Round() int { return w.round }

// Pos returns the current position of agent i.
func (w *World) Pos(i int) int64 { return w.pos[i] }

// SetPolicy overrides the movement policy of agent i. A world with any
// override steps agents one at a time; uniform worlds use the
// BulkStepper fast path when the policy and topology support it. The
// per-agent policy table is materialized on the first override, so
// uniform worlds — including 10M-agent sharded ones — never pay for
// it.
func (w *World) SetPolicy(i int, p Policy) {
	if w.policies == nil {
		w.policies = make([]Policy, len(w.pos))
		for j := range w.policies {
			w.policies[j] = w.uniform
		}
	}
	w.policies[i] = p
	w.uniform = nil
}

// SetTagged marks agent i as carrying the property of interest
// (Section 5.2). Tagged counts are served by CountTagged.
func (w *World) SetTagged(i int, tagged bool) {
	if w.tagged[i] == tagged {
		return
	}
	w.tagged[i] = tagged
	delta := 1
	if !tagged {
		delta = -1
	}
	w.numTag += delta
	if w.occDirty {
		return
	}
	// The index is live: patch the agent's current cell in place
	// instead of invalidating everything.
	p := w.pos[i]
	if w.sh != nil {
		sl := w.slabFor(p)
		if sl.dense != nil {
			sl.dense[p-sl.lo].tagged += int32(delta)
		} else {
			sl.sparse.addTag(p, int32(delta))
		}
		return
	}
	if d := w.occ.dense; d != nil {
		d[p].tagged += int32(delta)
	} else {
		w.occ.sparse.addTag(p, int32(delta))
	}
}

// Tagged reports whether agent i is tagged.
func (w *World) Tagged(i int) bool { return w.tagged[i] }

// NumTagged returns the number of tagged agents.
func (w *World) NumTagged() int { return w.numTag }

// Density returns the population density from any single agent's
// perspective: d = n/A where n is the number of *other* agents,
// matching the paper's convention for n+1 total agents (Section 2.1).
func (w *World) Density() float64 {
	return float64(len(w.pos)-1) / float64(w.graph.NumNodes())
}

// TaggedDensityFor returns d_P from agent i's perspective: the number
// of other tagged agents divided by A.
func (w *World) TaggedDensityFor(i int) float64 {
	n := w.numTag
	if w.tagged[i] {
		n--
	}
	return float64(n) / float64(w.graph.NumNodes())
}

// stepRange advances agents [lo, hi) one round. Uniform-policy worlds
// try the BulkStepper fast path first and otherwise run a scalar loop
// with the policy hoisted; worlds with per-agent overrides dispatch
// per agent.
func (w *World) stepRange(lo, hi int) {
	if p := w.uniform; p != nil {
		if w.stepBatched(w.graph, p, lo, hi) {
			return
		}
		if b, ok := p.(BulkStepper); ok && b.StepMany(w.graph, w.pos[lo:hi], w.streams[lo:hi]) {
			return
		}
		for i := lo; i < hi; i++ {
			w.pos[i] = p.Step(w.graph, w.pos[i], &w.streams[i])
		}
		return
	}
	for i := lo; i < hi; i++ {
		w.pos[i] = w.policies[i].Step(w.graph, w.pos[i], &w.streams[i])
	}
}

// Step advances the simulation one synchronous round: every agent
// moves once according to its policy. Collision queries after Step
// reflect the new positions, per the model's "collide in round r if
// they have the same position at the end of the round". If the
// occupancy index is live it is updated incrementally; worlds that
// never query counts pay nothing for it.
//antlint:noalloc
func (w *World) Step() {
	if w.sh != nil {
		w.stepSharded(1)
		return
	}
	w.ensureScratch()
	track := !w.occDirty
	if track {
		copy(w.prev, w.pos)
	}
	w.stepRange(0, len(w.pos))
	w.round++
	if track {
		w.applyMoves()
	}
}

// StepParallel advances one round using the given number of worker
// goroutines from the world's persistent pool (created on first use,
// reused every round). Because every agent steps from its own private
// stream, the result is bit-identical to Step regardless of workers;
// use it for worlds with hundreds of thousands of agents. On a
// sharded world, workers range over shards (each phase of the round
// splits its shards across the pool). On a flat world, workers < 2 or
// fewer than 2 agents per worker (parallelMinAgents) falls back to the
// serial path.
//antlint:noalloc
func (w *World) StepParallel(workers int) {
	if w.sh != nil {
		w.stepSharded(workers)
		return
	}
	if workers < 2 || len(w.pos) < parallelMinAgents*workers {
		w.Step()
		return
	}
	w.ensureScratch()
	track := !w.occDirty
	if track {
		copy(w.prev, w.pos)
	}
	w.ensurePool(workers).step(w)
	w.round++
	if track {
		w.applyMoves()
	}
}

// SetGroup assigns agent i to a group. Group 0 is the default
// "ungrouped" state; positive groups support the task-allocation
// application (Section 1 / [Gor99]) where agents separately track
// encounters with workers on each task. Groups are independent of the
// boolean property tag.
func (w *World) SetGroup(i int, group int) {
	if group < 0 {
		panic(fmt.Sprintf("sim: group must be >= 0, got %d", group))
	}
	g := int32(group)
	old := w.groups[i]
	if old == g {
		return
	}
	if old != 0 {
		w.numGroup[old]--
		if w.numGroup[old] == 0 {
			delete(w.numGroup, old)
		}
	}
	if g != 0 {
		w.numGroup[g]++
	}
	w.groups[i] = g
	if w.occDirty {
		return
	}
	// Patch the live per-group index at the agent's current position.
	p := w.pos[i]
	if w.sh != nil {
		sl := w.slabFor(p)
		if old != 0 {
			sl.groupDec(p, old)
		}
		if g != 0 {
			sl.groupInc(p, g)
		}
		return
	}
	if old != 0 {
		k := groupKey{pos: p, group: old}
		if n := w.occ.group[k] - 1; n == 0 {
			delete(w.occ.group, k)
		} else {
			w.occ.group[k] = n
		}
	}
	if g != 0 {
		w.occ.group[groupKey{pos: p, group: g}]++
	}
}

// Group returns agent i's group (0 if unassigned).
func (w *World) Group(i int) int { return int(w.groups[i]) }

// GroupSize returns the number of agents currently in group.
func (w *World) GroupSize(group int) int { return w.numGroup[int32(group)] }

// CountInGroup returns the number of other agents of the given
// positive group at agent i's current position — the per-task
// encounter sensing used for task allocation.
func (w *World) CountInGroup(i, group int) int {
	if group <= 0 {
		panic(fmt.Sprintf("sim: CountInGroup needs a positive group, got %d", group))
	}
	if w.occDirty {
		w.rebuildOcc()
	}
	p := w.pos[i]
	var c int
	if w.sh != nil {
		c = int(w.slabFor(p).group[groupKey{pos: p, group: int32(group)}])
	} else {
		c = int(w.occ.group[groupKey{pos: p, group: int32(group)}])
	}
	if int(w.groups[i]) == group {
		c--
	}
	return c
}

// GroupDensityFor returns the density of agents in group from agent
// i's perspective (other members of the group divided by A).
func (w *World) GroupDensityFor(i, group int) float64 {
	n := w.numGroup[int32(group)]
	if int(w.groups[i]) == group {
		n--
	}
	return float64(n) / float64(w.graph.NumNodes())
}

// Count implements the model's count(position) sensing for agent i:
// the number of other agents at i's current position.
//antlint:noalloc
func (w *World) Count(i int) int {
	if w.occDirty {
		w.rebuildOcc()
	}
	return int(w.occCell(w.pos[i]).total) - 1
}

// CountTagged returns the number of other *tagged* agents at agent i's
// position — the property-specific encounter sensing of Section 5.2
// ("ants can detect this property ... and separately track encounters
// with these agents").
//antlint:noalloc
func (w *World) CountTagged(i int) int {
	if w.occDirty {
		w.rebuildOcc()
	}
	c := int(w.occCell(w.pos[i]).tagged)
	if w.tagged[i] {
		c--
	}
	return c
}

// Positions returns a copy of all agent positions.
func (w *World) Positions() []int64 {
	out := make([]int64, len(w.pos))
	copy(out, w.pos)
	return out
}
