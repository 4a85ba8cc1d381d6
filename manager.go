package antdensity

// This file is the v2 API's scheduling layer: a Manager runs many
// Runs concurrently over a bounded worker pool with fair (strict
// FIFO) admission — the submission order is the start order, so a
// burst of heavy runs cannot starve earlier light ones. Each admitted
// run executes under the manager's context; Close cancels everything
// and waits.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// ErrQueueFull is returned by Submit when the Manager's admission
// queue is at its SetQueueLimit bound: the service is saturated and
// the caller should retry later (the serve layer maps this to
// 429 + Retry-After).
var ErrQueueFull = errors.New("antdensity: Manager queue is full")

// ManagedRun is a Run registered with a Manager under a stable id.
type ManagedRun struct {
	// ID is the manager-assigned identifier ("r000001", ...).
	ID string
	// Run is the underlying run; use it for Snapshot/Wait/Output/
	// Result. Cancel through Manager.Cancel or Run.Cancel — both work.
	Run *Run

	// fp is the Spec fingerprint the run was cached under ("" when the
	// Spec was not fingerprintable or dedup was not requested).
	fp string
}

// Manager schedules Runs over a bounded pool of concurrent workers.
// Construct with NewManager; all methods are safe for concurrent use.
type Manager struct {
	limit  int
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	runs   map[string]*ManagedRun
	order  []string // submission order, with dedup hits moved to the back; retention evicts from the front
	queue  []*ManagedRun
	active int
	seq    int
	retain int // max terminal runs kept registered
	qlimit int // max queued (not yet admitted) runs; 0 = unbounded
	closed bool
	wg     sync.WaitGroup

	cache  map[string]string // Spec fingerprint -> run id (SubmitDeduped)
	hits   uint64
	misses uint64
}

// DefaultRetention is the default bound on how many finished
// (terminal) runs a Manager keeps registered; see SetRetention.
const DefaultRetention = 1024

// NewManager returns a Manager executing at most maxConcurrent runs
// at once; maxConcurrent < 1 means GOMAXPROCS.
func NewManager(maxConcurrent int) *Manager {
	if maxConcurrent < 1 {
		maxConcurrent = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		limit:  maxConcurrent,
		ctx:    ctx,
		cancel: cancel,
		runs:   make(map[string]*ManagedRun),
		cache:  make(map[string]string),
		retain: DefaultRetention,
	}
}

// MaxConcurrent returns the worker-pool bound.
func (m *Manager) MaxConcurrent() int { return m.limit }

// SetQueueLimit bounds how many submitted runs may wait for a worker
// slot: once the queue holds n runs, Submit fails with ErrQueueFull
// instead of growing the backlog without bound. n <= 0 removes the
// bound (the default).
func (m *Manager) SetQueueLimit(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.qlimit = n
}

// QueueDepth returns the number of submitted runs waiting for a
// worker slot.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// CacheStats reports how many SubmitDeduped calls were served from
// the result cache (hits) versus actually executed (misses).
// Non-fingerprintable Specs count as misses.
func (m *Manager) CacheStats() (hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// SetRetention bounds how many terminal (done/canceled/failed) runs
// stay registered: once exceeded, the least recently submitted or
// dedup-hit terminal runs are evicted — their ids stop resolving, but live handles keep working.
// Pending, queued, and running runs are never evicted. n < 0 keeps
// every run forever (the pre-retention behavior); the default is
// DefaultRetention, so a long-lived server does not accumulate every
// result ever computed.
func (m *Manager) SetRetention(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retain = n
	m.evict()
}

// evict drops the oldest terminal runs beyond the retention bound.
// Callers hold m.mu.
func (m *Manager) evict() {
	if m.retain < 0 {
		return
	}
	terminal := 0
	for _, id := range m.order {
		if m.runs[id].Run.State().Terminal() {
			terminal++
		}
	}
	if terminal <= m.retain {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		if mr := m.runs[id]; terminal > m.retain && mr.Run.State().Terminal() {
			m.uncache(mr)
			delete(m.runs, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// uncache drops a run's result-cache mapping. Callers hold m.mu.
func (m *Manager) uncache(mr *ManagedRun) {
	if mr.fp != "" && m.cache[mr.fp] == mr.ID {
		delete(m.cache, mr.fp)
	}
}

// Remove unregisters a terminal run immediately (freeing its retained
// result), reporting whether the id named one. Non-terminal runs are
// not removable — cancel first.
func (m *Manager) Remove(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	mr, ok := m.runs[id]
	if !ok || !mr.Run.State().Terminal() {
		return false
	}
	m.uncache(mr)
	delete(m.runs, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return true
}

// Submit compiles the Spec (returning any validation error
// immediately) and enqueues the resulting Run. Admission is strict
// FIFO over a bounded worker pool: the run starts as soon as a slot
// frees up and every earlier submission has started. The returned
// ManagedRun is live immediately — Snapshot reports "queued" until
// the run is admitted. When a SetQueueLimit bound is set and reached,
// Submit fails with ErrQueueFull.
func (m *Manager) Submit(spec *Spec) (*ManagedRun, error) {
	mr, _, err := m.submit(spec, "", false)
	return mr, err
}

// SubmitDeduped is Submit through the result cache: if an identical
// Spec (equal Fingerprint) was already submitted and its run is still
// registered and not canceled/failed, the existing ManagedRun is
// returned with cached == true and nothing is recomputed — the
// deterministic stack guarantees the result would be bit-identical.
// Non-fingerprintable Specs (a graph with no identity and no
// GraphKey) always execute.
func (m *Manager) SubmitDeduped(spec *Spec) (*ManagedRun, bool, error) {
	return m.submit(spec, "", true)
}

// SubmitWithID is Submit under a caller-chosen id instead of the next
// "rNNNNNN" sequence id. It exists for durable frontends replaying a
// journal after restart: an interrupted run is re-submitted under its
// original id, so clients holding that id keep resolving it. The id
// must not collide with a registered run.
func (m *Manager) SubmitWithID(id string, spec *Spec) (*ManagedRun, error) {
	if id == "" {
		return nil, fmt.Errorf("antdensity: SubmitWithID needs a non-empty id")
	}
	mr, _, err := m.submit(spec, id, false)
	return mr, err
}

// SetSeqBase raises the id sequence floor: subsequent Submit calls
// assign ids after n. Durable frontends call it after a journal
// replay so fresh ids never collide with journaled ones. It never
// lowers the sequence.
func (m *Manager) SetSeqBase(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n > m.seq {
		m.seq = n
	}
}

// submit is the shared enqueue path. id == "" assigns the next
// sequence id; dedup routes through the result cache.
func (m *Manager) submit(spec *Spec, id string, dedup bool) (*ManagedRun, bool, error) {
	fp := ""
	if dedup {
		if f, ok := spec.Fingerprint(); ok {
			fp = f
		}
	}
	if fp != "" {
		if mr, ok := m.cacheLookup(fp); ok {
			return mr, true, nil
		}
	}
	run, err := spec.NewRun()
	if err != nil {
		return nil, false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, fmt.Errorf("antdensity: Manager is closed")
	}
	if m.qlimit > 0 && len(m.queue) >= m.qlimit {
		return nil, false, ErrQueueFull
	}
	if id == "" {
		m.seq++
		id = fmt.Sprintf("r%06d", m.seq)
	} else if _, exists := m.runs[id]; exists {
		return nil, false, fmt.Errorf("antdensity: run id %q is already registered", id)
	}
	mr := &ManagedRun{ID: id, Run: run, fp: fp}
	run.markQueued()
	m.runs[mr.ID] = mr
	m.order = append(m.order, mr.ID)
	m.queue = append(m.queue, mr)
	if dedup {
		m.misses++
		if fp != "" {
			m.cache[fp] = mr.ID
		}
	}
	m.pump()
	return mr, false, nil
}

// cacheLookup resolves a fingerprint to a live cache entry, dropping
// mappings whose runs were evicted or ended canceled/failed (those
// must be recomputed). A hit moves the run to the back of the
// retention order, so retention evicts least recently used runs: the
// run just handed out is the last to go, not possibly the next.
func (m *Manager) cacheLookup(fp string) (*ManagedRun, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id, ok := m.cache[fp]
	if !ok {
		return nil, false
	}
	mr, ok := m.runs[id]
	if !ok || mr.Run.State() == StateCanceled || mr.Run.State() == StateFailed {
		delete(m.cache, fp)
		return nil, false
	}
	m.hits++
	m.touch(id)
	return mr, true
}

// touch moves id to the back of m.order. Callers hold m.mu.
func (m *Manager) touch(id string) {
	if i := slices.Index(m.order, id); i >= 0 {
		m.order = append(slices.Delete(m.order, i, i+1), id)
	}
}

// pump admits queued runs while worker slots are free. Callers hold
// m.mu.
func (m *Manager) pump() {
	for m.active < m.limit && len(m.queue) > 0 {
		mr := m.queue[0]
		m.queue = m.queue[1:]
		if err := mr.Run.Start(m.ctx); err != nil {
			// Cancelled while queued: the run is already terminal.
			continue
		}
		m.active++
		m.wg.Add(1)
		go func(mr *ManagedRun) {
			defer m.wg.Done()
			<-mr.Run.Done()
			m.mu.Lock()
			m.active--
			m.evict()
			m.pump()
			m.mu.Unlock()
		}(mr)
	}
}

// Get returns the run registered under id.
func (m *Manager) Get(id string) (*ManagedRun, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mr, ok := m.runs[id]
	return mr, ok
}

// Runs returns every registered run in retention order: submission
// order, except that a SubmitDeduped cache hit moves its run to the
// end.
func (m *Manager) Runs() []*ManagedRun {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*ManagedRun, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.runs[id])
	}
	return out
}

// Cancel cancels the run registered under id (queued runs finish
// immediately without executing). It reports whether the id was
// known.
func (m *Manager) Cancel(id string) bool {
	mr, ok := m.Get(id)
	if !ok {
		return false
	}
	mr.Run.Cancel()
	// A queued run goes terminal right here, with no worker goroutine
	// to trigger eviction for it — and it would otherwise stay pinned
	// in m.queue until admission reached it, so a cancel-heavy burst
	// could grow the queue without bound. Compact it out now.
	m.mu.Lock()
	for i, qmr := range m.queue {
		if qmr == mr {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			break
		}
	}
	m.evict()
	m.mu.Unlock()
	return true
}

// Close cancels every run — running and queued — refuses further
// submissions, and waits for all workers to finish.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	queued := m.queue
	m.queue = nil
	m.mu.Unlock()
	m.cancel()
	for _, mr := range queued {
		mr.Run.Cancel()
	}
	m.wg.Wait()
}
