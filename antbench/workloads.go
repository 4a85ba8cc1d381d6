package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"

	"antdensity"
	"antdensity/internal/rng"
	"antdensity/internal/socialnet"
)

// wireGraph is the graph recipe of a POST /v1/runs body, limited to
// the recipes the workloads use.
type wireGraph struct {
	Kind   string `json:"kind"`
	Side   int64  `json:"side,omitempty"`
	Nodes  int64  `json:"nodes,omitempty"`
	Degree int    `json:"degree,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
}

// wireSpec is the POST /v1/runs body, limited to the fields the
// workloads set. Every other Spec field keeps its default.
type wireSpec struct {
	Kind       string    `json:"kind"`
	Graph      wireGraph `json:"graph"`
	Agents     int       `json:"agents,omitempty"`
	Rounds     int       `json:"rounds"`
	Seed       uint64    `json:"seed,omitempty"`
	Walkers    int       `json:"walkers,omitempty"`
	Stationary bool      `json:"stationary,omitempty"`
}

// request is one generated unit of work: a run spec and the class it
// was drawn from.
type request struct {
	Class string   `json:"class"`
	Spec  wireSpec `json:"spec"`
}

// numAgents is the agent count of a density run or the walker count
// of a netsize run.
func (r request) numAgents() int {
	if r.Spec.Kind == "netsize" {
		return r.Spec.Walkers
	}
	return r.Spec.Agents
}

// agentRounds is the paper's cost unit for one run: agents × rounds.
func (r request) agentRounds() float64 {
	return float64(r.numAgents()) * float64(r.Spec.Rounds)
}

// body is the request's POST /v1/runs payload. The same bytes key the
// duplicate check, since the server deduplicates identical specs.
func (r request) body() []byte {
	b, err := json.Marshal(r.Spec)
	if err != nil {
		panic(err) // a struct of plain fields always marshals
	}
	return b
}

// buildGraph materializes a recipe exactly as the serve handler does,
// so in-process replays run on the same graph as the server.
func buildGraph(g wireGraph) (antdensity.Graph, error) {
	switch g.Kind {
	case "torus2d":
		t, err := antdensity.NewTorus2D(g.Side)
		if err != nil {
			return nil, err
		}
		return t, nil
	case "ba":
		adj, err := socialnet.BarabasiAlbert(g.Nodes, g.Degree, rng.New(g.Seed))
		if err != nil {
			return nil, err
		}
		return adj, nil
	}
	return nil, fmt.Errorf("unknown graph recipe %q", g.Kind)
}

// newSpec translates a wire spec on a built graph into a Spec the way
// the serve handler does, default settings included.
func newSpec(ws wireSpec, g antdensity.Graph) (*antdensity.Spec, error) {
	kind, err := antdensity.ParseKind(ws.Kind)
	if err != nil {
		return nil, err
	}
	s := antdensity.NewSpec(kind,
		antdensity.WithGraph(g),
		antdensity.WithAgents(ws.Agents),
		antdensity.WithSeed(ws.Seed),
		antdensity.WithRounds(ws.Rounds),
	)
	if ws.Graph.Kind == "ba" {
		s.GraphKey = fmt.Sprintf("ba:nodes=%d,degree=%d,seed=%d", ws.Graph.Nodes, ws.Graph.Degree, ws.Graph.Seed)
	}
	s.Walkers = ws.Walkers
	s.Stationary = ws.Stationary
	return s, nil
}

// sizes holds every workload parameter, so the tests can run the same
// code at reduced sizes.
type sizes struct {
	Side100k         int64
	Agents100k       int
	Rounds100k       int
	TinySide         int64
	TinyAgents       int
	TinyRounds       int
	MediumSide       int64
	MediumAgents     int
	MediumRounds     int
	NetNodes         int64
	NetDegree        int
	NetWalkers       int
	NetRounds        int
	MixTraceRequests int
}

// fullSizes are the benchmark's workload sizes.
var fullSizes = sizes{
	Side100k: 512, Agents100k: 100_000, Rounds100k: 100,
	TinySide: 20, TinyAgents: 41, TinyRounds: 200,
	MediumSide: 128, MediumAgents: 5_000, MediumRounds: 100,
	NetNodes: 20_000, NetDegree: 4, NetWalkers: 2_000, NetRounds: 100,
	MixTraceRequests: 48,
}

// workload is one closed-loop input set of the benchmark.
type workload struct {
	Name string
	Why  string
	// Serve drives the built server over loopback HTTP; otherwise the
	// workload calls the library in-process, one run at a time.
	Serve bool
	// TraceRequests is how many schedule entries the traced run replays.
	TraceRequests int
	// gen draws request i of the schedule; it may keep state in g.
	gen func(r *rand.Rand, g *genState) request
}

// genState is the generator memory a schedule carries between draws.
type genState struct {
	block     []string // classes left in the current block
	tiny      int      // tiny specs drawn so far
	tinySeeds []uint64 // fresh tiny seeds drawn so far
}

// mixBlock is one block of serve-mix classes.
var mixBlock = []string{"tiny", "tiny", "tiny", "tiny", "tiny", "medium", "medium", "medium", "medium", "netsize"}

// workloads returns the benchmark's workloads at the given sizes. A
// library netsize workload on a 200,000-node graph and a 2^20-agent
// density workload were left out: on a shared VM their speed follows
// the host's memory traffic too closely for the bounds (README.md,
// "Noise"). Their layers still run in serve-mix and in traced runs.
func workloads(sz sizes) []workload {
	density := func(class string, side int64, agents, rounds int) func(*rand.Rand, *genState) request {
		return func(r *rand.Rand, _ *genState) request {
			return request{Class: class, Spec: wireSpec{
				Kind: "density", Graph: wireGraph{Kind: "torus2d", Side: side},
				Agents: agents, Rounds: rounds, Seed: r.Uint64(),
			}}
		}
	}
	netsize := func(class string, nodes int64, degree, walkers, rounds int) func(*rand.Rand, *genState) request {
		return func(r *rand.Rand, _ *genState) request {
			return request{Class: class, Spec: wireSpec{
				Kind:    "netsize",
				Graph:   wireGraph{Kind: "ba", Nodes: nodes, Degree: degree, Seed: r.Uint64()},
				Walkers: walkers, Rounds: rounds, Seed: r.Uint64(), Stationary: true,
			}}
		}
	}
	medium := density("medium", sz.MediumSide, sz.MediumAgents, sz.MediumRounds)
	net := netsize("netsize", sz.NetNodes, sz.NetDegree, sz.NetWalkers, sz.NetRounds)
	mix := func(r *rand.Rand, g *genState) request {
		// Classes come in blocks of ten, shuffled by the seed, so every
		// run of any seed sends the same mix.
		if len(g.block) == 0 {
			g.block = append(g.block, mixBlock...)
			r.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		}
		class := g.block[0]
		g.block = g.block[1:]
		switch class {
		case "tiny":
			// Every other tiny spec repeats an earlier tiny seed, so half
			// are fingerprint duplicates the server serves from cache.
			var seed uint64
			if g.tiny%2 == 1 {
				seed = g.tinySeeds[r.IntN(len(g.tinySeeds))]
			} else {
				seed = r.Uint64()
				g.tinySeeds = append(g.tinySeeds, seed)
			}
			g.tiny++
			return request{Class: "tiny", Spec: wireSpec{
				Kind: "density", Graph: wireGraph{Kind: "torus2d", Side: sz.TinySide},
				Agents: sz.TinyAgents, Rounds: sz.TinyRounds, Seed: seed,
			}}
		case "medium":
			return medium(r, g)
		default:
			return net(r, g)
		}
	}
	return []workload{
		{
			Name:          "density-100k",
			Why:           "ROADMAP headline run at defaults: Run snapshot bands and the results encoder do most of the work, sim about a quarter",
			TraceRequests: 2,
			gen:           density("density-100k", sz.Side100k, sz.Agents100k, sz.Rounds100k),
		},
		{
			Name:          "serve-mix",
			Why:           "only workload through HTTP, Manager admission, the dedup cache, journal appends and SSE; mixes cached reads with computed writes",
			Serve:         true,
			TraceRequests: sz.MixTraceRequests,
			gen:           mix,
		},
	}
}

// findWorkload returns the named workload.
func findWorkload(sz sizes, name string) (workload, error) {
	for _, w := range workloads(sz) {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// schedule is a workload's request sequence for one seed. Entry i is
// the same whichever client asks for it first, because entries are
// drawn in index order under the lock.
type schedule struct {
	mu   sync.Mutex
	w    workload
	rand *rand.Rand
	st   genState
	reqs []request
}

// newSchedule seeds a workload's request sequence. The inputs depend
// only on the seed, never on the code under test.
func newSchedule(w workload, seed uint64) *schedule {
	return &schedule{w: w, rand: rand.New(rand.NewPCG(seed, 0x616e7462656e6368))}
}

// at returns request i, drawing the sequence up to it on first use.
func (s *schedule) at(i int) request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= i {
		s.reqs = append(s.reqs, s.w.gen(s.rand, &s.st))
	}
	return s.reqs[i]
}

// digestLen is how many schedule entries the input digest covers.
const digestLen = 256

// digest fingerprints the first digestLen requests, so two runs with
// the same seed can be shown to send identical inputs.
func (s *schedule) digest() string {
	h := sha256.New()
	for i := 0; i < digestLen; i++ {
		b, err := json.Marshal(s.at(i))
		if err != nil {
			panic(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
