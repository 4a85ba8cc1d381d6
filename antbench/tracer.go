package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent 0 marks a root; Req is
// the schedule index of the request the span belongs to (-1 for
// workload-level probes).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// record adds a closed span with explicit bounds.
func (t *tracer) record(name string, parent, req int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
}

// finished returns the closed spans with their self times: a span's
// duration minus the part of it its closed children cover.
func (t *tracer) finished() []span {
	t.mu.Lock()
	all := append([]span(nil), t.spans...)
	t.mu.Unlock()
	return withSelf(all)
}

// withSelf drops unclosed spans (a failed request leaves its spans
// open) and fills in every remaining span's self time.
func withSelf(all []span) []span {
	var out []span
	index := map[int]int{}
	for _, s := range all {
		if s.End >= s.Start {
			index[s.ID] = len(out)
			out = append(out, s)
		}
	}
	kids := map[int][]span{}
	for _, s := range out {
		if _, ok := index[s.Parent]; ok {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range out {
		out[i].Self = out[i].dur() - covered(out[i], kids[out[i].ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// spanIndex answers the per-layer questions over a finished trace.
type spanIndex struct {
	spans []span
}

// where returns the spans with the given name whose root is named
// rootName (or any root when rootName is empty).
func (x spanIndex) where(name, rootName string) []span {
	roots := map[int]string{}
	parent := map[int]int{}
	for _, s := range x.spans {
		parent[s.ID] = s.Parent
		if s.Parent == 0 {
			roots[s.ID] = s.Name
		}
	}
	rootOf := func(id int) int {
		for parent[id] != 0 {
			id = parent[id]
		}
		return id
	}
	var out []span
	for _, s := range x.spans {
		if s.Name == name && (rootName == "" || roots[rootOf(s.ID)] == rootName) {
			out = append(out, s)
		}
	}
	return out
}

// durs returns the durations in seconds.
func durs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / 1e9
	}
	return out
}

// sumDurNs sums the spans' durations per request index.
func sumDurNs(ss []span) map[int]int64 {
	out := map[int]int64{}
	for _, s := range ss {
		out[s.Req] += s.dur()
	}
	return out
}

// writeTrace writes the spans to path as JSON.
func writeTrace(path string, spans []span) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
