package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"antdensity"
	"antdensity/internal/core"
	"antdensity/internal/netsize"
	"antdensity/internal/results"
	"antdensity/internal/rng"
	"antdensity/internal/sim"
)

// replayOut is what one in-process replay of a request produced.
type replayOut struct {
	total      time.Duration
	nodes      int64
	counts     []int64         // the sim replay's collision totals
	netsize    *netsize.Result // the netsize replay's estimate, when run
	out        antdensity.Output
	res        *results.Result
	bytes      int
	simMallocs uint64 // mallocs of the sim replay's rounds
	netMallocs uint64 // mallocs of the netsize replay's estimate
	runMallocs uint64 // mallocs of the Run's Start→Wait
	allocMB    float64
}

// replay runs one request through every layer it reaches, in stack
// order: the graph build; the sim layer with a count probe and a
// core.CollisionObserver; the netsize walkers (netsize requests, or
// when withNetsize is set); then the root package's NewRun, Start/Wait
// and the results encoder. With tr nil it does the same calls
// untimed; with tr set every call is a span under one request span.
func replay(ctx context.Context, req request, idx int, withNetsize bool, tr *tracer, buf *bytes.Buffer) (replayOut, error) {
	var rep replayOut
	t0 := time.Now()
	root := tr.begin("replay.request", 0, idx)
	defer tr.end(root)
	sp := tr.begin("graph.build", root, idx)
	g, err := buildGraph(req.Spec.Graph)
	tr.end(sp)
	if err != nil {
		return rep, err
	}
	rep.nodes = g.NumNodes()
	n, t, seed := req.numAgents(), req.Spec.Rounds, req.Spec.Seed
	var m0, m1, m2 runtime.MemStats

	sp = tr.begin("sim.world_build", root, idx)
	w, err := sim.NewWorld(sim.Config{Graph: g, NumAgents: n, Seed: seed})
	tr.end(sp)
	if err != nil {
		return rep, err
	}
	co, err := core.NewCollisionObserver(n)
	if err != nil {
		return rep, err
	}
	if tr == nil {
		sim.Run(w, t, co)
	} else {
		cur := 0
		count := sim.ObserverFunc(func(rd *sim.Round) sim.Signal {
			s := tr.begin("sim.count", cur, idx)
			rd.Counts()
			tr.end(s)
			return sim.Continue
		})
		observe := sim.ObserverFunc(func(rd *sim.Round) sim.Signal {
			s := tr.begin("core.observe", cur, idx)
			sig := co.Observe(rd)
			tr.end(s)
			return sig
		})
		rn := sim.NewRunner(w, count, observe)
		runtime.ReadMemStats(&m0)
		for r := 0; r < t; r++ {
			cur = tr.begin("sim.round", root, idx)
			rn.Step()
			tr.end(cur)
		}
		runtime.ReadMemStats(&m1)
		rep.simMallocs = m1.Mallocs - m0.Mallocs
	}
	w.Close()
	rep.counts = co.Counts()

	if req.Spec.Kind == "netsize" || withNetsize {
		if rep.netsize, rep.netMallocs, err = replayNetsize(ctx, g, n, t, seed, root, idx, tr); err != nil {
			return rep, err
		}
	}

	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	sp = tr.begin("run.new", root, idx)
	spec, err := newSpec(req.Spec, g)
	var run *antdensity.Run
	if err == nil {
		run, err = spec.NewRun()
	}
	tr.end(sp)
	if err != nil {
		return rep, err
	}
	if tr != nil {
		runtime.ReadMemStats(&m1)
	}
	sp = tr.begin("run.exec", root, idx)
	rep.out, err = execute(ctx, run)
	tr.end(sp)
	if err != nil {
		return rep, err
	}
	if tr != nil {
		runtime.ReadMemStats(&m2)
		rep.runMallocs = m2.Mallocs - m1.Mallocs
		rep.allocMB = float64(m2.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	}
	sp = tr.begin("results.encode", root, idx)
	rep.res, err = encode(run, buf)
	tr.end(sp)
	rep.bytes = buf.Len()
	rep.total = time.Since(t0)
	return rep, err
}

// replayNetsize runs the netsize layer on g: stationary walkers, the
// Algorithm 3 average degree, then Algorithm 2 with a per-round span
// from an observer riding on the counting run — the same composition
// netsize.EstimateContext uses for a stationary start, so the result
// is bit-identical to a netsize Run's. A second, identically seeded
// set of walkers then takes t bare Walkers.Step calls.
func replayNetsize(ctx context.Context, g antdensity.Graph, n, t int, seed uint64, root, idx int, tr *tracer) (*netsize.Result, uint64, error) {
	sp := tr.begin("netsize.walkers_build", root, idx)
	wk, err := netsize.NewWalkersStationary(g, n, rng.New(seed))
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("netsize.avg_degree", root, idx)
	inv := wk.EstimateAvgDegree()
	tr.end(sp)
	var extra []sim.Observer
	est := tr.begin("netsize.estimate", root, idx)
	if tr != nil {
		last := time.Now()
		extra = append(extra, sim.ObserverFunc(func(*sim.Round) sim.Signal {
			now := time.Now()
			tr.record("netsize.round", est, idx, last, now)
			last = now
			return sim.Continue
		}))
	}
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	res, err := wk.EstimateSizeContext(ctx, t, inv, extra...)
	if tr != nil {
		runtime.ReadMemStats(&m1)
	}
	tr.end(est)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("netsize.walkers_build", root, idx)
	bare, err := netsize.NewWalkersStationary(g, n, rng.New(seed))
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("netsize.step", root, idx)
	for r := 0; r < t; r++ {
		bare.Step()
	}
	tr.end(sp)
	return res, m1.Mallocs - m0.Mallocs, nil
}

// checkReplay checks one replay: the Run's output and its encoded
// result against the request, the replay's collision counts (or
// netsize estimate) bit-identical to the Run's, and a netsize probe on
// a density request within the netsize tolerance.
func checkReplay(req request, rep replayOut, encoded []byte) error {
	err := firstErr(checkOutput(req, rep.out, rep.res), checkResultJSON(encoded, req))
	switch req.Spec.Kind {
	case "density":
		err = firstErr(err, checkIdentical(rep.counts, req.Spec.Rounds, rep.out.Estimates))
		if rep.netsize != nil {
			err = firstErr(err, checkNetsize(rep.netsize.Size, rep.nodes))
		}
	case "netsize":
		got, want := rep.netsize, rep.out.NetworkSize
		if got == nil || want == nil || math.Float64bits(got.C) != math.Float64bits(want.C) ||
			math.Float64bits(got.Size) != math.Float64bits(want.Size) || got.Queries != want.Queries {
			err = firstErr(err, fmt.Errorf("identity: netsize replay %+v differs from run output %+v", got, want))
		}
	}
	return err
}

// managerReplay sends the requests through NewManager(clients) and
// SubmitDeduped from `clients` closed-loop goroutines, as the server
// would. It returns each request's latency from graph build to encoded
// result, its queue wait (SubmitDeduped call to admission), and the
// cache hit ratio.
func managerReplay(ctx context.Context, reqs []request, tr *tracer, t *tally) (lat, wait []float64, hitRatio float64) {
	m := antdensity.NewManager(clients)
	defer m.Close()
	lat = make([]float64, len(reqs))
	wait = make([]float64, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				l, q, err := managerRequest(m, reqs[i], i, tr, &buf)
				lat[i], wait[i] = l, q
				t.op(err)
			}
		}()
	}
	wg.Wait()
	hits, misses := m.CacheStats()
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	return lat, wait, hitRatio
}

// managerRequest is one request of managerReplay.
func managerRequest(m *antdensity.Manager, req request, idx int, tr *tracer, buf *bytes.Buffer) (lat, wait float64, err error) {
	t0 := time.Now()
	root := tr.begin("manager.request", 0, idx)
	defer tr.end(root)
	sp := tr.begin("graph.build", root, idx)
	g, err := buildGraph(req.Spec.Graph)
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	spec, err := newSpec(req.Spec, g)
	if err != nil {
		return 0, 0, err
	}
	sp = tr.begin("manager.submit", root, idx)
	q0 := time.Now()
	mr, _, err := m.SubmitDeduped(spec)
	if err != nil {
		return 0, 0, err
	}
	for s := mr.Run.State(); s == antdensity.StatePending || s == antdensity.StateQueued; s = mr.Run.State() {
		time.Sleep(20 * time.Microsecond)
	}
	wait = time.Since(q0).Seconds()
	tr.end(sp)
	sp = tr.begin("manager.wait", root, idx)
	err = mr.Run.Wait()
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	sp = tr.begin("results.encode", root, idx)
	res, err := mr.Run.Result()
	if err == nil {
		buf.Reset()
		err = results.WriteJSON(buf, res)
	}
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	lat = time.Since(t0).Seconds()
	return lat, wait, checkResult(res, req)
}

// rngProbe times standalone rng.Uint64nEach fills of n streams and
// returns nanoseconds per draw.
func rngProbe(n int, seed uint64, tr *tracer) float64 {
	streams := make([]rng.Stream, n)
	root := rng.New(seed)
	for i := range streams {
		streams[i] = root.SplitValue(uint64(i))
	}
	out := make([]uint64, n)
	reps := max(1, 20_000_000/n)
	t0 := time.Now()
	sp := tr.begin("rng.fill", 0, -1)
	for r := 0; r < reps; r++ {
		rng.Uint64nEach(streams, 4, out)
	}
	tr.end(sp)
	return float64(time.Since(t0).Nanoseconds()) / float64(n*reps)
}

// traceReport is what the traced run measured.
type traceReport struct {
	metrics   *metricSet
	tracedS   float64
	untracedS float64
	spans     []span
	requests  int
	extra     map[string]float64
}

// runTraced is a workload's traced run. It replays the first
// TraceRequests schedule entries through the layers: in-process
// untraced, traced and untraced again (the ratio of traced to untraced
// time is the tracing overhead), through a Manager, and through a fresh
// server over HTTP.
func runTraced(ctx context.Context, w workload, sched *schedule, bin, outDir string, t *tally) (traceReport, error) {
	reqs := make([]request, w.TraceRequests)
	withNetsize := true
	for i := range reqs {
		reqs[i] = sched.at(i)
		if reqs[i].Spec.Kind == "netsize" {
			withNetsize = false
		}
	}
	tr := newTracer()
	var buf bytes.Buffer
	m := newMetricSet(perLayer)

	// The rng layer at the largest agent count of the replayed requests.
	n := 0
	for _, r := range reqs {
		n = max(n, r.numAgents())
	}
	m.set("rng.fill_ns_per_draw", rngProbe(n, reqs[0].Spec.Seed, tr))

	// In-process replays of each request: untraced, traced, untraced.
	// The traced time is compared with the mean of the two untraced
	// passes around it, so the cold first pass does not count against
	// either side alone.
	var untraced, traced float64
	reps := make([]replayOut, len(reqs))
	for i, req := range reqs {
		for pass := 0; pass < 3; pass++ {
			var ptr *tracer
			if pass == 1 {
				ptr = tr
			}
			rep, err := replay(ctx, req, i, withNetsize && i == 0, ptr, &buf)
			if err == nil {
				err = checkReplay(req, rep, buf.Bytes())
			}
			t.op(err)
			if ptr == nil {
				untraced += rep.total.Seconds()
			} else {
				traced += rep.total.Seconds()
				// Checked above; keep only the measurements.
				rep.counts, rep.out, rep.res = nil, antdensity.Output{}, nil
				reps[i] = rep
			}
		}
	}
	m.set("trace_overhead_frac", traced/(untraced/2)-1)

	// Manager replay, then the same requests over HTTP.
	mlat, mwait, hit := managerReplay(ctx, reqs, tr, t)
	m.set("manager.queue_wait_s_p50", median(mwait))
	m.set("manager.cache_hit_ratio", hit)
	// Return the replays' heap to the OS, so that at the large sizes
	// the server's memory does not come on top of it.
	debug.FreeOSMemory()
	srvRSS, err := traceServe(ctx, bin, outDir, sched, reqs, mlat, tr, m, t)
	if err != nil {
		return traceReport{}, err
	}

	spans := tr.finished()
	layerMetrics(spanIndex{spans}, reqs, reps, m)
	return traceReport{metrics: m, tracedS: traced, untracedS: untraced / 2, spans: spans, requests: len(reqs),
		extra: map[string]float64{"bench_peak_rss_mb": selfPeakRSSMB(), "server_peak_rss_mb": srvRSS}}, nil
}

// traceServe sends the replayed requests to a fresh server with the
// workload's client count, records the serve and journal metrics and
// returns the server's peak RSS.
func traceServe(ctx context.Context, bin, outDir string, sched *schedule, reqs []request, mlat []float64, tr *tracer, m *metricSet, t *tally) (float64, error) {
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	srv, _, err := startReady(bin, outDir, c)
	if err != nil {
		return 0, err
	}
	defer srv.close()
	done, errs := drive(ctx, c, srv.base, sched, len(reqs), func() bool { return false }, tr)
	c.CloseIdleConnections()
	t.op(srv.drain())
	for _, err := range errs {
		t.op(err)
	}
	checkServed(done, t)
	var submit, wait, result, self, frames []float64
	rejected := 0
	for _, d := range done {
		submit = append(submit, d.res.submit.Seconds())
		wait = append(wait, d.res.done.Seconds())
		result = append(result, d.res.result.Seconds())
		self = append(self, d.res.total.Seconds()-mlat[d.idx])
		frames = append(frames, float64(d.res.frames))
		rejected += d.res.rejected
	}
	m.set("serve.submit_s_p50", median(submit))
	m.set("serve.done_s_p50", median(wait))
	m.set("serve.result_s_p50", median(result))
	m.set("serve.self_s_p50", median(self))
	m.set("serve.sse_frames_per_request", mean(frames))
	m.set("serve.rejected_429_frac", float64(rejected)/float64(rejected+len(done)))
	jb, err := srv.journalBytes()
	if err != nil {
		return 0, err
	}
	// The start-up probe is a request the journal records too.
	m.set("journal.bytes_per_request", float64(jb)/float64(len(done)+1))
	return srv.peakRSSMB(), nil
}

// layerMetrics derives the in-process per-layer metrics from the
// traced replay's spans.
func layerMetrics(x spanIndex, reqs []request, reps []replayOut, m *metricSet) {
	const root = "replay.request"
	var simAR, netAR float64
	for _, r := range reqs {
		simAR += r.agentRounds()
	}
	nsPer := func(ns int64, ar float64) float64 { return float64(ns) / ar }
	var stepNs, countNs, observeNs int64
	for _, s := range x.where("sim.round", root) {
		stepNs += s.Self
	}
	for _, s := range x.where("sim.count", root) {
		countNs += s.dur()
	}
	for _, s := range x.where("core.observe", root) {
		observeNs += s.dur()
	}
	m.set("sim.step_ns_per_agent_round", nsPer(stepNs, simAR))
	m.set("sim.count_ns_per_agent_round", nsPer(countNs, simAR))
	m.set("core.observe_ns_per_agent_round", nsPer(observeNs, simAR))
	m.set("graph.build_s", median(durs(x.where("graph.build", root))))
	m.set("sim.world_build_s", median(durs(x.where("sim.world_build", root))))
	m.set("results.encode_s", median(durs(x.where("results.encode", root))))

	simRounds := sumDurNs(x.where("sim.round", root))
	netPipe := sumDurNs(append(x.where("netsize.estimate", root), x.where("netsize.avg_degree", root)...))
	netBuild := map[int]int64{}
	for _, s := range x.where("netsize.walkers_build", root) {
		// The first build per request feeds the estimate; the second
		// only the bare step probe.
		if _, ok := netBuild[s.Req]; !ok {
			netBuild[s.Req] = s.dur()
		}
	}
	exec := sumDurNs(x.where("run.exec", root))
	var selfS, allocsPerRound, allocMB, bytes []float64
	var queries []float64
	for i, r := range reqs {
		base := simRounds[i]
		replayMallocs := reps[i].simMallocs
		if r.Spec.Kind == "netsize" {
			base = netPipe[i] + netBuild[i]
			replayMallocs = reps[i].netMallocs
		}
		selfS = append(selfS, float64(exec[i]-base)/1e9)
		allocsPerRound = append(allocsPerRound, (float64(reps[i].runMallocs)-float64(replayMallocs))/float64(r.Spec.Rounds))
		allocMB = append(allocMB, reps[i].allocMB)
		bytes = append(bytes, float64(reps[i].bytes))
		if reps[i].netsize != nil {
			queries = append(queries, float64(reps[i].netsize.Queries))
			netAR += float64(r.numAgents()) * float64(r.Spec.Rounds)
		}
	}
	m.set("run.self_s", mean(selfS))
	m.set("run.allocs_per_round", mean(allocsPerRound))
	m.set("run.alloc_mb", mean(allocMB))
	m.set("results.bytes", median(bytes))
	m.set("netsize.queries", mean(queries))
	var netStep, netEst int64
	for _, s := range x.where("netsize.step", root) {
		netStep += s.dur()
	}
	for _, s := range x.where("netsize.estimate", root) {
		netEst += s.dur()
	}
	m.set("netsize.step_ns_per_walker_round", nsPer(netStep, netAR))
	m.set("netsize.self_ns_per_walker_round", nsPer(netEst-netStep, netAR))
}
