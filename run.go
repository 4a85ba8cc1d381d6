package antdensity

// This file is the v2 API's execution layer: a Run is one compiled
// Spec executing on its own goroutine with cooperative context
// cancellation (plumbed through sim.RunContext, so a cancelled run
// returns within one round of ctx.Done() and always leaves its world
// consistent on a round boundary) and live anytime snapshots — the
// paper's whole point is that Algorithm 1's estimate improves every
// round, and Snapshot exposes exactly that mid-flight view to other
// goroutines.
//
// Snapshots are captured on publish and derived on read. Each
// published round only captures its state into a frame: the round
// and, for density and quorum runs, a copy of the observer's
// collision counts. Frames are recycled through a small ring, so a
// run nobody reads allocates nothing per round. The first Snapshot
// call on a frame derives the estimates, bands, mean and votes from
// it and memoizes them for every later reader of that frame. A
// reader pins the frame with an atomic CAS while deriving; the
// stepping goroutine never reuses a pinned frame, so readers never
// block it and it never blocks them. The terminal snapshot is derived
// eagerly and keeps no counts.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"antdensity/internal/adversary"
	"antdensity/internal/core"
	"antdensity/internal/netsize"
	"antdensity/internal/quorum"
	"antdensity/internal/results"
	"antdensity/internal/sim"
	"antdensity/internal/stats"
)

// RunResult is the schema-stable structured outcome of a Run — the
// same typed Result/Series/Cell model the experiments stack renders
// to text, JSON, and CSV (internal/results). The serve API's
// /v1/runs/{id}/result payload is exactly this type's JSON encoding.
type RunResult = results.Result

// RunState is a Run's lifecycle phase.
type RunState int32

const (
	// StatePending: compiled but not yet started.
	StatePending RunState = iota
	// StateQueued: submitted to a Manager, waiting for a worker slot.
	StateQueued
	// StateRunning: executing.
	StateRunning
	// StateDone: finished successfully; Result and Output are ready.
	StateDone
	// StateCanceled: stopped by context cancellation or Cancel.
	StateCanceled
	// StateFailed: stopped by a non-cancellation error.
	StateFailed
)

var stateNames = [...]string{"pending", "queued", "running", "done", "canceled", "failed"}

// String returns the state's wire name.
func (s RunState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("RunState(%d)", int32(s))
}

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == StateDone || s == StateCanceled || s == StateFailed
}

// Snapshot is a Run's live anytime view: how far it has progressed
// and what every agent currently estimates. Snapshots are immutable
// once published — treat the slices as read-only; they are shared
// with every other reader of the same snapshot.
type Snapshot struct {
	// State is the run's lifecycle phase at read time.
	State RunState
	// Round is the number of completed observed rounds (for netsize:
	// burn-in plus counting rounds).
	Round int
	// MaxRounds is the planned horizon. Adaptive quorum runs may
	// finish below it.
	MaxRounds int
	// Progress is Round/MaxRounds in [0, 1].
	Progress float64
	// NumAgents is the number of agents (walkers for netsize).
	NumAgents int
	// Estimates holds each agent's current estimate: the running
	// density c/round for density-family runs, the property frequency
	// f_P for property runs; nil for netsize.
	Estimates []float64
	// CIHalf holds each agent's anytime confidence half-width at the
	// Spec's Delta level (density and adaptive quorum runs; +Inf
	// before an agent's first collision), nil for other kinds.
	CIHalf []float64
	// Mean is the mean of the finite Estimates (0 when none).
	Mean float64
	// Decided is the number of agents that have stopped with a
	// decision (adaptive quorum only).
	Decided int
	// YesVotes counts agents currently at or above the threshold
	// (quorum kinds).
	YesVotes int
	// Err is the terminal error message, if the run failed or was
	// cancelled.
	Err string
}

// Output is a Run's typed outcome; exactly the fields matching the
// Spec's Kind are populated.
type Output struct {
	// Rounds is the number of rounds actually executed.
	Rounds int
	// Estimates holds per-agent density estimates (density and
	// independent kinds).
	Estimates []float64
	// Property holds the property-frequency outputs (KindProperty).
	Property *PropertyResult
	// Votes holds per-agent quorum votes (KindQuorum).
	Votes []bool
	// Anytime holds the adaptive quorum outcome (KindQuorumAdaptive).
	Anytime *QuorumAnytimeResult
	// NetworkSize holds the netsize outcome (KindNetworkSize).
	NetworkSize *NetworkSizeResult
}

// Run is one executing (or executed) estimation run. Compile a Spec
// into a Run with Spec.NewRun, start it with Start, follow it with
// Snapshot from any goroutine, and collect the outcome with Wait /
// Output / Result. A Run executes exactly once; it is not reusable.
type Run struct {
	spec      *Spec
	world     *sim.World // nil for netsize
	numAgents int
	exec      func(ctx context.Context) (Output, *results.Result, error)

	state   atomic.Int32
	cur     atomic.Pointer[frame]         // the latest published frame
	ring    []*frame                      // recyclable frames; run goroutine only, nil once terminal
	capture func(f *frame)                // fills a frame's kind-specific state at publish; nil captures nothing
	derive  func(f *frame)                // derives estimate fields from captured counts on first read; nil when capture filled them
	updated atomic.Pointer[chan struct{}] // armed by Updated, closed by the next publish; nil when nobody waits

	mu       sync.Mutex
	started  bool
	cancelFn context.CancelFunc
	done     chan struct{}
	err      error
	output   Output
	result   *results.Result
}

// NewRun validates and compiles the Spec. All configuration errors
// (including world construction) surface here, before anything runs.
// The Spec must not be mutated afterwards.
func (s *Spec) NewRun() (*Run, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r := &Run{spec: s, done: make(chan struct{})}
	var err error
	switch s.Kind {
	case KindNetworkSize:
		r.numAgents = s.Walkers
		err = r.compileNetsize()
	default:
		r.world, err = s.buildWorld()
		if err == nil {
			r.numAgents = r.world.NumAgents()
			switch s.Kind {
			case KindDensity:
				err = r.compileDensity()
			case KindIndependent:
				r.compileIndependent()
			case KindProperty:
				err = r.compileProperty()
			case KindQuorum:
				err = r.compileQuorum()
			case KindQuorumAdaptive:
				err = r.compileAdaptiveQuorum()
			}
		}
	}
	if err != nil {
		return nil, err
	}
	r.ring = []*frame{{}, {}, {}}
	pending := r.ring[0]
	pending.snap = Snapshot{MaxRounds: s.Rounds, NumAgents: r.numAgents}
	r.cur.Store(pending)
	return r, nil
}

// Start begins executing the Spec. Start launches a Run, validating
// and compiling it first; it returns the started Run.
func (s *Spec) Start(ctx context.Context) (*Run, error) {
	r, err := s.NewRun()
	if err != nil {
		return nil, err
	}
	if err := r.Start(ctx); err != nil {
		return nil, err
	}
	return r, nil
}

// Spec returns the Spec the run was compiled from (read-only).
func (r *Run) Spec() *Spec { return r.spec }

// State returns the run's current lifecycle phase.
func (r *Run) State() RunState { return RunState(r.state.Load()) }

// markQueued transitions Pending -> Queued (Manager admission).
func (r *Run) markQueued() { r.state.CompareAndSwap(int32(StatePending), int32(StateQueued)) }

// Start launches the run on its own goroutine. The context governs
// the whole run: cancelling it (or its deadline passing) stops the
// run cooperatively within one round. Start returns an error if the
// run was already started or cancelled.
func (r *Run) Start(ctx context.Context) error {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return errors.New("antdensity: Run already started")
	}
	r.started = true
	cctx, cancel := context.WithCancel(ctx)
	r.cancelFn = cancel
	r.state.Store(int32(StateRunning))
	r.mu.Unlock()
	go r.loop(cctx)
	return nil
}

// loop executes the compiled engine and records the terminal state.
func (r *Run) loop(ctx context.Context) {
	out, res, err := r.safeExec(ctx)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.output, r.result, r.err = out, res, err
	state := StateDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		state = StateCanceled
	default:
		state = StateFailed
	}
	r.finish(state, err)
	if r.cancelFn != nil {
		r.cancelFn() // release the context's resources
	}
	close(r.done)
}

// safeExec runs the engine, converting a panic (reachable only
// through inputs validation cannot see, e.g. a hostile Graph
// implementation) into a Failed-state error so a Manager full of
// other runs survives.
func (r *Run) safeExec(ctx context.Context) (out Output, res *results.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, res = Output{}, nil
			err = fmt.Errorf("antdensity: run panicked: %v", p)
		}
	}()
	return r.exec(ctx)
}

// Cancel stops the run cooperatively: a running run returns within
// one round with Err() == context.Canceled; a pending or queued run
// finishes immediately without executing. Cancel is safe to call from
// any goroutine and more than once.
func (r *Run) Cancel() {
	r.mu.Lock()
	if r.started {
		cancel := r.cancelFn
		r.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return
	}
	// Never started: finish as cancelled right here.
	r.started = true
	r.err = context.Canceled
	r.finish(StateCanceled, r.err)
	close(r.done)
	r.mu.Unlock()
}

// Done returns a channel closed when the run reaches a terminal
// state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Wait blocks until the run terminates and returns its error: nil on
// success, context.Canceled (or DeadlineExceeded) after cancellation,
// or the failure that stopped it.
func (r *Run) Wait() error {
	<-r.done
	return r.Err()
}

// Err returns the terminal error, or nil while the run is still
// pending or executing (and after success).
func (r *Run) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.State().Terminal() {
		return nil
	}
	return r.err
}

// finish publishes the terminal snapshot, then the terminal state
// (callers hold r.mu and are the only publisher left). The snapshot
// is derived from the last frame right here and published in a frame
// of its own without counts, so a finished run retains no capture
// buffers. Publishing it before the state means a reader who sees a
// terminal State also reads a terminal Snapshot.
func (r *Run) finish(state RunState, err error) {
	final := r.cur.Load().view(r.derive)
	final.State = state
	if err != nil {
		final.Err = err.Error()
	}
	f := &frame{snap: final}
	f.once.Do(func() {}) // already derived
	r.cur.Store(f)
	r.ring = nil
	r.state.Store(int32(state))
	r.wake()
}

// Snapshot returns the latest published anytime view. The first read
// of a published round derives its estimate fields from the captured
// state; later reads of the same round share that derivation. It
// never blocks the run and the run never blocks it. The returned
// slices are shared with every other reader of the same round: treat
// them as read-only.
func (r *Run) Snapshot() Snapshot {
	f := r.pin()
	snap := f.view(r.derive)
	f.pins.Add(-1)
	if !snap.State.Terminal() {
		// Pending/queued/running transitions publish no frame;
		// surface the current phase.
		snap.State = r.State()
	}
	return snap
}

// Output blocks until the run terminates and returns its typed
// outcome (or the terminal error).
func (r *Run) Output() (Output, error) {
	if err := r.Wait(); err != nil {
		return Output{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.output, nil
}

// Result blocks until the run terminates and returns its structured,
// schema-stable result (see RunResult), or the terminal error.
func (r *Run) Result() (*RunResult, error) {
	if err := r.Wait(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.result, nil
}

// frame is one published round: its snapshot's progress fields and
// the state captured for deriving the rest on first read.
type frame struct {
	// pins counts readers holding the frame; -1 while the run
	// goroutine owns it for writing.
	pins atomic.Int32
	// counts is the captured collision counts (density and quorum).
	counts []int64
	once   sync.Once
	// snap holds the progress fields from publish, the estimate fields
	// a capture filled eagerly, and, once once has run, the derived
	// ones.
	snap Snapshot
}

// view returns the frame's snapshot, running derive on the first
// call. The caller holds a pin, or is the run goroutine after its
// last publish.
func (f *frame) view(derive func(*frame)) Snapshot {
	f.once.Do(func() {
		if derive != nil && f.snap.Round > 0 {
			derive(f)
		}
	})
	return f.snap
}

// pin returns the current frame with a reader pin held; release it
// with f.pins.Add(-1). A frame read between its publication and its
// opening (or being reclaimed after it was superseded) is retried.
func (r *Run) pin() *frame {
	for {
		f := r.cur.Load()
		if n := f.pins.Load(); n >= 0 && f.pins.CompareAndSwap(n, n+1) {
			return f
		}
		runtime.Gosched()
	}
}

// publish captures the state after `round` completed rounds into a
// recycled frame and makes it current (run goroutine only), then
// wakes every Updated watcher. The frame opens to readers only after
// it is current, so no reader can see a round newer than the current
// one and then an older one.
//
//antlint:noalloc
func (r *Run) publish(round, maxRounds int) {
	f := r.spareFrame()
	f.snap = Snapshot{
		Round:     round,
		MaxRounds: maxRounds,
		Progress:  float64(round) / float64(maxRounds),
		NumAgents: r.numAgents,
	}
	f.once = sync.Once{}
	if round > 0 && r.capture != nil {
		r.capture(f)
	}
	r.cur.Store(f)
	f.pins.Store(0)
	r.wake()
}

// spareFrame claims a ring frame that is neither current nor pinned
// (run goroutine only). A pinned frame is never reused: when readers
// pin every spare, a fresh frame takes one's ring slot and the
// readers keep the old one until they let go.
//
//antlint:noalloc
func (r *Run) spareFrame() *frame {
	cur := r.cur.Load()
	for _, f := range r.ring {
		if f != cur && f.pins.CompareAndSwap(0, -1) {
			return f
		}
	}
	for i, f := range r.ring {
		if f != cur {
			fresh := &frame{}
			fresh.pins.Store(-1)
			r.ring[i] = fresh
			return fresh
		}
	}
	panic("antdensity: frame ring has no spare slot")
}

// wake closes the Updated channel if a watcher armed one — the
// closed-channel broadcast: every watcher parked on it unblocks and
// re-reads Snapshot. With no watchers it allocates nothing.
//
//antlint:noalloc
func (r *Run) wake() {
	if ch := r.updated.Swap(nil); ch != nil {
		close(*ch)
	}
}

// Updated returns a channel closed the next time the run publishes a
// round (or reaches a terminal state — see Done for a channel that
// stays closed). The intended pattern for streaming consumers:
//
//	for {
//	        ch := run.Updated()
//	        snap := run.Snapshot()
//	        ... emit snap ...
//	        if snap.State.Terminal() { return }
//	        select {
//	        case <-ch:
//	        case <-run.Done():
//	        case <-ctx.Done():
//	                return
//	        }
//	}
//
// Reading the channel before the snapshot guarantees no update is
// missed: a publish after the Snapshot read closes the returned
// channel. The channel is made on the first call after a publish, so
// publishing costs nothing while nobody waits.
func (r *Run) Updated() <-chan struct{} {
	for {
		if ch := r.updated.Load(); ch != nil {
			return *ch
		}
		fresh := make(chan struct{})
		if r.updated.CompareAndSwap(nil, &fresh) {
			return fresh
		}
	}
}

// publisher returns a pipeline observer that publishes every observed
// round. It never stops, so the runner hands it every round the world
// executes: the last published frame is always the run's true final
// round, whether the run ends at the horizon, stops early, or is
// cancelled.
func (r *Run) publisher(maxRounds int) sim.Observer {
	return sim.ObserverFunc(func(rd *sim.Round) sim.Signal {
		r.publish(rd.Index(), maxRounds)
		return sim.Continue
	})
}

// meanFinite returns the mean of the finite values (0 when none).
func meanFinite(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// captureCounts is the density and quorum capture: a copy of the
// observer's collision counts into the frame's reused buffer.
func captureCounts(obs *core.CollisionObserver) func(f *frame) {
	return func(f *frame) { f.counts = append(f.counts[:0], obs.Counts()...) }
}

// deriveCounts converts a frame's captured counts to running density
// estimates c/round with their anytime bands and mean.
func (r *Run) deriveCounts(f *frame) {
	round := f.snap.Round
	band := core.NewTheoremOneBand(round, r.spec.delta(), r.spec.c1())
	ests := make([]float64, len(f.counts))
	half := make([]float64, len(f.counts))
	for i, c := range f.counts {
		ests[i] = float64(c) / float64(round)
		half[i] = bandHalf(band, ests[i])
	}
	f.snap.Estimates, f.snap.CIHalf, f.snap.Mean = ests, half, meanFinite(ests)
}

// bandHalf returns a running estimate's anytime confidence half-width
// — the StreamingEstimator.Interval band shape, with the plug-in
// density clamped to 1 — or +Inf before the agent's first collision.
func bandHalf(band core.TheoremOneBand, est float64) float64 {
	if est == 0 {
		return math.Inf(1)
	}
	return band.Epsilon(min(est, 1)) * est
}

// baseResult starts a structured result carrying the run's identity.
func (r *Run) baseResult(title string) *results.Result {
	return &results.Result{ID: r.spec.Kind.String(), Title: title, Seed: r.spec.Seed}
}

// compileAdversary builds the Spec's Tamperer — attached to the run's
// world, so stall adversaries physically freeze — and a Detector
// auditing its reports. Both are nil when the Spec has no adversary.
func (r *Run) compileAdversary() (*adversary.Tamperer, *adversary.Detector, error) {
	tam, err := r.spec.tamperer(r.numAgents)
	if tam == nil || err != nil {
		return nil, nil, err
	}
	tam.Attach(r.world)
	return tam, adversary.NewDetector(r.numAgents, tam, adversary.DetectorConfig{}), nil
}

// addAdversaryMetrics records the adversarial population, every
// stats.Aggregator of the per-agent estimates (robust locations beside
// the mean — the comparison the adversary experiments plot), and the
// detection rates scored against the ground-truth mask.
func addAdversaryMetrics(res *results.Result, ests []float64, tam *adversary.Tamperer, audit *adversary.Detector) {
	res.SetMetric("adversaries", float64(tam.NumAdversarial()))
	res.SetMetric("adversary_fraction", tam.Config().Fraction)
	for _, agg := range stats.Aggregators() {
		res.SetMetric("estimate_"+agg.String(), agg.Aggregate(ests))
	}
	tpr, fpr, flagged := audit.Rates(tam.Mask())
	res.SetMetric("detect_tpr", tpr)
	res.SetMetric("detect_fpr", fpr)
	res.SetMetric("detect_flagged", float64(flagged))
}

// compileDensity builds the KindDensity engine: Algorithm 1 through
// the observation pipeline, with a snapshot publisher riding along.
func (r *Run) compileDensity() error {
	tam, audit, err := r.compileAdversary()
	if err != nil {
		return err
	}
	opts := r.spec.estimatorOptions()
	if tam != nil {
		opts = append(opts, core.WithReportFilter(tam.Filter()))
	}
	obs, err := core.NewCollisionObserver(r.numAgents, opts...)
	if err != nil {
		return err
	}
	t := r.spec.Rounds
	r.capture, r.derive = captureCounts(obs), r.deriveCounts
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		// The audit detector rides after the estimator, so it reads the
		// Tamperer's memoized per-round reports (see adversary.Detector).
		pipeline := []sim.Observer{obs}
		if audit != nil {
			pipeline = append(pipeline, audit)
		}
		pipeline = append(pipeline, r.publisher(t))
		if _, err := sim.RunContext(ctx, r.world, t, pipeline...); err != nil {
			return Output{}, nil, err
		}
		// Divide by the requested horizon t (== rounds executed on
		// success), exactly matching Algorithm 1's c/t.
		ests := make([]float64, r.numAgents)
		for i, c := range obs.Counts() {
			ests[i] = float64(c) / float64(t)
		}
		res := r.baseResult("Algorithm 1 encounter-rate density estimation")
		r.addEstimateSeries(res, ests)
		res.SetMetric("rounds", float64(t))
		res.SetMetric("num_agents", float64(r.numAgents))
		res.SetMetric("true_density", r.world.Density())
		res.SetMetric("mean_estimate", meanFinite(ests))
		if tam != nil {
			addAdversaryMetrics(res, ests, tam, audit)
		}
		return Output{Rounds: t, Estimates: ests}, res, nil
	}
	return nil
}

// compileIndependent builds the KindIndependent engine (Algorithm 4).
func (r *Run) compileIndependent() {
	obs := core.NewIndependentObserver(r.numAgents)
	t := r.spec.Rounds
	r.capture = func(f *frame) {
		f.snap.Estimates = obs.Estimates(f.snap.Round)
		f.snap.Mean = meanFinite(f.snap.Estimates)
	}
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		core.SetupAlgorithm4(r.world, r.spec.PolicySeed)
		if _, err := sim.RunContext(ctx, r.world, t, obs, r.publisher(t)); err != nil {
			return Output{}, nil, err
		}
		ests := obs.Estimates(t)
		res := r.baseResult("Algorithm 4 independent-sampling density estimation")
		r.addEstimateSeries(res, ests)
		res.SetMetric("rounds", float64(t))
		res.SetMetric("num_agents", float64(r.numAgents))
		res.SetMetric("true_density", r.world.Density())
		res.SetMetric("mean_estimate", meanFinite(ests))
		return Output{Rounds: t, Estimates: ests}, res, nil
	}
}

// compileProperty builds the KindProperty engine (Section 5.2).
func (r *Run) compileProperty() error {
	tam, audit, err := r.compileAdversary()
	if err != nil {
		return err
	}
	opts := r.spec.estimatorOptions()
	if tam != nil {
		opts = append(opts,
			core.WithReportFilter(tam.Filter()),
			core.WithTaggedReportFilter(tam.TaggedFilter()))
	}
	obs, err := core.NewPropertyObserver(r.numAgents, opts...)
	if err != nil {
		return err
	}
	t := r.spec.Rounds
	r.capture = func(f *frame) {
		f.snap.Estimates = obs.Result().Frequency
		f.snap.Mean = meanFinite(f.snap.Estimates)
	}
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		pipeline := []sim.Observer{obs}
		if audit != nil {
			pipeline = append(pipeline, audit)
		}
		pipeline = append(pipeline, r.publisher(t))
		if _, err := sim.RunContext(ctx, r.world, t, pipeline...); err != nil {
			return Output{}, nil, err
		}
		pr := obs.Result()
		res := r.baseResult("Section 5.2 property-frequency estimation")
		series := res.AddSeries("agents", results.Cols("agent", "density", "property_density", "frequency")...)
		for i, row := range series.AddRows(len(pr.Density)) {
			row[0], row[1] = results.Int(int64(i)), results.Float(pr.Density[i])
			row[2], row[3] = results.Float(pr.PropertyDensity[i]), results.Float(pr.Frequency[i])
		}
		res.SetMetric("rounds", float64(t))
		res.SetMetric("num_agents", float64(r.numAgents))
		res.SetMetric("mean_frequency", meanFinite(pr.Frequency))
		if tam != nil {
			addAdversaryMetrics(res, pr.Frequency, tam, audit)
		}
		return Output{Rounds: t, Property: pr}, res, nil
	}
	return nil
}

// compileQuorum builds the KindQuorum engine: Algorithm 1 counting
// plus a threshold vote at the horizon.
func (r *Run) compileQuorum() error {
	tam, audit, err := r.compileAdversary()
	if err != nil {
		return err
	}
	opts := r.spec.estimatorOptions()
	if tam != nil {
		opts = append(opts, core.WithReportFilter(tam.Filter()))
	}
	obs, err := core.NewCollisionObserver(r.numAgents, opts...)
	if err != nil {
		return err
	}
	t, threshold := r.spec.Rounds, r.spec.Threshold
	r.capture = captureCounts(obs)
	r.derive = func(f *frame) {
		r.deriveCounts(f)
		for _, e := range f.snap.Estimates {
			if e >= threshold {
				f.snap.YesVotes++
			}
		}
	}
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		pipeline := []sim.Observer{obs}
		if audit != nil {
			pipeline = append(pipeline, audit)
		}
		pipeline = append(pipeline, r.publisher(t))
		if _, err := sim.RunContext(ctx, r.world, t, pipeline...); err != nil {
			return Output{}, nil, err
		}
		ests := make([]float64, r.numAgents)
		for i, c := range obs.Counts() {
			ests[i] = float64(c) / float64(t)
		}
		votes := quorum.Votes(ests, threshold)
		res := r.baseResult("Section 6.2 fixed-horizon quorum vote")
		series := res.AddSeries("votes", results.Cols("agent", "estimate", "vote")...)
		rows := series.AddRows(len(votes))
		yes := 0
		for i, v := range votes {
			rows[i][0], rows[i][1], rows[i][2] = results.Int(int64(i)), results.Float(ests[i]), results.Bool(v)
			if v {
				yes++
			}
		}
		res.SetMetric("rounds", float64(t))
		res.SetMetric("threshold", threshold)
		res.SetMetric("yes_votes", float64(yes))
		res.SetMetric("vote_fraction", quorum.VoteFraction(votes))
		res.SetMetric("majority", boolMetric(quorum.MajorityVote(votes)))
		if tam != nil {
			addAdversaryMetrics(res, ests, tam, audit)
			res.SetMetric("trimmed_vote_fraction", quorum.TrimmedVoteFraction(ests, threshold, 0.25))
			res.SetMetric("trimmed_majority", boolMetric(quorum.TrimmedMajority(ests, threshold, 0.25)))
		}
		return Output{Rounds: t, Votes: votes}, res, nil
	}
	return nil
}

// compileAdaptiveQuorum builds the KindQuorumAdaptive engine: the
// per-agent anytime detector with early stopping.
func (r *Run) compileAdaptiveQuorum() error {
	det, err := quorum.NewAnytimeDetector(r.numAgents, r.spec.Threshold, r.spec.delta(), r.spec.c1())
	if err != nil {
		return err
	}
	tam, audit, err := r.compileAdversary()
	if err != nil {
		return err
	}
	if tam != nil {
		det.SetReportFilter(tam.Filter())
	}
	maxRounds := r.spec.Rounds
	r.capture = func(f *frame) {
		ests := make([]float64, r.numAgents)
		half := make([]float64, r.numAgents)
		for i := range ests {
			ests[i], half[i] = det.Interval(i)
			if det.Decision(i) == +1 {
				f.snap.YesVotes++
			}
		}
		f.snap.Estimates, f.snap.CIHalf = ests, half
		f.snap.Mean = meanFinite(ests)
		f.snap.Decided = det.NumDecided()
	}
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		// The anytime detector observes first (it is the filter's first
		// caller each round), then the audit, then the publisher.
		extra := []sim.Observer{}
		if audit != nil {
			extra = append(extra, audit)
		}
		extra = append(extra, r.publisher(maxRounds))
		ar, err := det.DecideContext(ctx, r.world, maxRounds, extra...)
		if err != nil {
			return Output{}, nil, err
		}
		res := r.baseResult("Section 6.2 anytime quorum decision")
		series := res.AddSeries("decisions", results.Cols("agent", "decision", "stop_round")...)
		rows := series.AddRows(len(ar.Decision))
		yes, undecided := 0, 0
		votes := make([]bool, len(ar.Decision))
		for i, d := range ar.Decision {
			rows[i][0], rows[i][1], rows[i][2] = results.Int(int64(i)), results.Int(int64(d)), results.Int(int64(ar.StopRound[i]))
			votes[i] = d == +1
			if d == +1 {
				yes++
			}
			if d == 0 {
				undecided++
			}
		}
		res.SetMetric("rounds", float64(ar.Rounds))
		res.SetMetric("max_rounds", float64(maxRounds))
		res.SetMetric("threshold", r.spec.Threshold)
		res.SetMetric("yes_votes", float64(yes))
		res.SetMetric("undecided", float64(undecided))
		res.SetMetric("vote_fraction", quorum.VoteFraction(votes))
		res.SetMetric("majority", boolMetric(quorum.MajorityVote(votes)))
		if tam != nil {
			ests := make([]float64, r.numAgents)
			for i := range ests {
				ests[i], _ = det.Interval(i)
			}
			addAdversaryMetrics(res, ests, tam, audit)
		}
		return Output{Rounds: ar.Rounds, Anytime: ar}, res, nil
	}
	return nil
}

// compileNetsize builds the KindNetworkSize engine: the Section 5.1
// pipeline with the snapshot publisher attached to its progress hook.
func (r *Run) compileNetsize() error {
	s := r.spec
	cfg := netsize.Config{
		Walkers:    s.Walkers,
		Steps:      s.Rounds,
		BurnIn:     s.BurnIn,
		Delta:      s.Delta,
		Seed:       s.Seed,
		SeedVertex: s.SeedVertex,
		Stationary: s.Stationary,
	}
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		cfg.Progress = r.publish
		nr, err := netsize.EstimateContext(ctx, s.Graph, cfg)
		if err != nil {
			return Output{}, nil, err
		}
		res := r.baseResult("Section 5.1 network-size estimation")
		res.SetMetric("size", nr.Size)
		res.SetMetric("collision_rate_c", nr.C)
		res.SetMetric("inv_avg_degree", nr.InvAvgDegree)
		res.SetMetric("queries", float64(nr.Queries))
		res.SetMetric("walkers", float64(s.Walkers))
		res.SetMetric("steps", float64(s.Rounds))
		return Output{Rounds: s.Rounds, NetworkSize: nr}, res, nil
	}
	return nil
}

// addEstimateSeries appends the per-agent estimate table shared by
// the density-family results.
func (r *Run) addEstimateSeries(res *results.Result, ests []float64) {
	series := res.AddSeries("estimates", results.Cols("agent", "estimate")...)
	for i, row := range series.AddRows(len(ests)) {
		row[0], row[1] = results.Int(int64(i)), results.Float(ests[i])
	}
}

// boolMetric encodes a predicate as a 0/1 metric.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
