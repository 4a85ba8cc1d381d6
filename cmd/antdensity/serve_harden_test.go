package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	name string
	data string
}

// readSSE parses SSE frames off a stream until limit events or EOF.
func readSSE(t *testing.T, r io.Reader, limit int) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" || cur.data != "" {
				events = append(events, cur)
				cur = sseEvent{}
				if len(events) >= limit {
					return events
				}
			}
		}
	}
	return events
}

// TestServeSSEStream is the tentpole streaming check: the events
// endpoint pushes every published snapshot in order and finishes with
// the terminal view plus an end frame.
func TestServeSSEStream(t *testing.T) {
	srv, _ := newTestServer(t)
	snap := postRun(t, srv, `{
		"kind": "density",
		"graph": {"kind": "torus2d", "side": 20},
		"agents": 21,
		"rounds": 400000,
		"seed": 3
	}`)
	resp, err := http.Get(srv.URL + "/v1/runs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	// Every round is published, and the stream sends at most one
	// snapshot per distinct (round, state): rounds 0..400000 running,
	// the terminal view, and the end frame bound it.
	events := readSSE(t, resp.Body, 400000+3)
	if len(events) < 3 {
		t.Fatalf("stream had only %d events: %+v", len(events), events)
	}
	last := events[len(events)-1]
	if last.name != "end" || !strings.Contains(last.data, `"done"`) {
		t.Fatalf("final event = %+v, want end/done", last)
	}
	prevRound := -1
	var final runSnapshot
	for _, ev := range events[:len(events)-1] {
		if ev.name != "snapshot" {
			t.Fatalf("unexpected event %q mid-stream", ev.name)
		}
		var s runSnapshot
		if err := json.Unmarshal([]byte(ev.data), &s); err != nil {
			t.Fatalf("snapshot event %q: %v", ev.data, err)
		}
		if s.Round < prevRound {
			t.Fatalf("snapshot rounds went backwards: %d after %d", s.Round, prevRound)
		}
		prevRound = s.Round
		final = s
	}
	if final.State != "done" || final.Round != 400000 || final.MeanEstimate <= 0 {
		t.Fatalf("terminal snapshot = %+v", final)
	}
}

// TestServeSSEEndFrameTerminal streams many tiny runs from the moment
// they are submitted, so some finish between the stream's snapshot
// read and its terminal check. Every end frame must name a terminal
// state, and the snapshot frame before it must be the terminal view
// in that same state.
func TestServeSSEEndFrameTerminal(t *testing.T) {
	srv, _ := newTestServer(t)
	const runs, clients = 120, 4
	errs := make(chan error, runs)
	sem := make(chan struct{}, clients)
	for i := 0; i < runs; i++ {
		sem <- struct{}{}
		go func(seed int) {
			defer func() { <-sem }()
			errs <- streamTinyRun(t, srv, seed)
		}(i + 1)
	}
	for i := 0; i < runs; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// streamTinyRun submits one tiny density run, follows its events to
// the end frame, and checks the end frame and the terminal snapshot.
func streamTinyRun(t *testing.T, srv *httptest.Server, seed int) error {
	body := fmt.Sprintf(`{"kind":"density","graph":{"kind":"torus2d","side":20},"agents":41,"rounds":200,"seed":%d}`, seed)
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	var sub runSnapshot
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		return err
	}
	ev, err := http.Get(srv.URL + "/v1/runs/" + sub.ID + "/events")
	if err != nil {
		return err
	}
	defer ev.Body.Close()
	events := readSSE(t, ev.Body, 1000)
	if len(events) < 2 || events[len(events)-1].name != "end" {
		return fmt.Errorf("run %s: stream did not finish with an end frame: %+v", sub.ID, events)
	}
	var end struct{ State string }
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &end); err != nil {
		return err
	}
	var last runSnapshot
	if err := json.Unmarshal([]byte(events[len(events)-2].data), &last); err != nil {
		return err
	}
	if end.State != "done" || last.State != "done" || last.Round != 200 {
		return fmt.Errorf("run %s: end frame state %q after snapshot %+v, want done after the round-200 done snapshot", sub.ID, end.State, last)
	}
	return nil
}

// TestServeSSEClientDisconnect checks a dropped client doesn't wedge
// the server: the stream goroutine exits and the run keeps going.
func TestServeSSEClientDisconnect(t *testing.T) {
	srv, _ := newTestServer(t)
	snap := postRun(t, srv, `{
		"kind": "density",
		"graph": {"kind": "torus2d", "side": 20},
		"agents": 21,
		"rounds": 1000000000,
		"seed": 4
	}`)
	resp, err := http.Get(srv.URL + "/v1/runs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if evs := readSSE(t, resp.Body, 1); len(evs) != 1 || evs[0].name != "snapshot" {
		t.Fatalf("first event = %+v", evs)
	}
	resp.Body.Close() // disconnect mid-stream

	// The service remains fully responsive and the run is still live.
	var live runSnapshot
	getJSON(t, srv.URL+"/v1/runs/"+snap.ID, http.StatusOK, &live)
	if live.State != "running" && live.State != "queued" {
		t.Fatalf("post-disconnect state = %q", live.State)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+snap.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE after disconnect: %v / %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

// TestServeSSETerminalRun: subscribing to an already-finished run
// yields exactly its terminal snapshot and the end frame.
func TestServeSSETerminalRun(t *testing.T) {
	srv, _ := newTestServer(t)
	snap := postRun(t, srv, `{
		"kind": "density",
		"graph": {"kind": "torus2d", "side": 20},
		"agents": 21,
		"rounds": 100,
		"seed": 5
	}`)
	waitState(t, srv, snap.ID, "done")
	resp, err := http.Get(srv.URL + "/v1/runs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body, 10)
	if len(events) != 2 || events[0].name != "snapshot" || events[1].name != "end" {
		t.Fatalf("terminal-run stream = %+v", events)
	}
}

// waitState polls a run's snapshot until it reaches want.
func waitState(t *testing.T, srv *httptest.Server, id, want string) runSnapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var snap runSnapshot
		getJSON(t, srv.URL+"/v1/runs/"+id, http.StatusOK, &snap)
		if snap.State == want {
			return snap
		}
		if snap.State == "failed" || snap.State == "canceled" {
			t.Fatalf("run %s ended in state %q: %s", id, snap.State, snap.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never reached %q: %+v", id, want, snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeBodyLimit is the MaxBytesReader satellite: an oversized
// submission gets 413, and the connection keeps working.
func TestServeBodyLimit(t *testing.T) {
	srv, _ := newTestServer(t)
	huge := `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 21, "rounds": 10, "noise": {"detect_prob": 0.` +
		strings.Repeat("9", maxRequestBody) + `}}`
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST = %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("413 body: %v / %+v", err, e)
	}
	// A normal-sized submission still works afterwards.
	postRun(t, srv, `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 5, "rounds": 10, "seed": 1}`)
}

// TestServeInvalidGraphRecipes is the buildGraph validation satellite:
// every graph kind rejects its degenerate parameters with 400, never
// NaN arithmetic or a panic.
func TestServeInvalidGraphRecipes(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, tc := range []struct {
		name  string
		graph string
	}{
		{"torus2d zero side", `{"kind": "torus2d"}`},
		{"torus zero dims", `{"kind": "torus", "side": 5}`},
		{"ring zero nodes", `{"kind": "ring"}`},
		{"hypercube zero bits", `{"kind": "hypercube"}`},
		{"hypercube oversized", `{"kind": "hypercube", "bits": 99}`},
		{"complete one node", `{"kind": "complete", "nodes": 1}`},
		{"regular zero nodes", `{"kind": "regular", "degree": 4}`},
		{"regular zero degree", `{"kind": "regular", "nodes": 64}`},
		{"ba zero nodes", `{"kind": "ba", "degree": 2}`},
		{"ba degree over nodes", `{"kind": "ba", "nodes": 3, "degree": 5}`},
		{"er zero nodes", `{"kind": "er", "degree": 4}`},
		{"er zero degree", `{"kind": "er", "nodes": 100}`},
		{"er degree over nodes", `{"kind": "er", "nodes": 10, "degree": 20}`},
		{"ws zero nodes", `{"kind": "ws", "degree": 2}`},
		{"ws nodes under 2k+2", `{"kind": "ws", "nodes": 4, "degree": 2}`},
		{"unknown kind", `{"kind": "klein-bottle"}`},
	} {
		body := fmt.Sprintf(`{"kind": "density", "graph": %s, "agents": 5, "rounds": 10}`, tc.graph)
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || e.Error == "" {
			t.Errorf("%s: status %d (err %v, body %+v), want 400 with error", tc.name, resp.StatusCode, err, e)
		}
	}
}

// TestServeQuorumSnapshotFields is the omitempty satellite: quorum
// snapshots carry decided/yes_votes even at zero, and non-quorum
// snapshots omit them.
func TestServeQuorumSnapshotFields(t *testing.T) {
	srv, _ := newTestServer(t)
	// A threshold far above any possible estimate: zero yes votes.
	snap := postRun(t, srv, `{
		"kind": "quorum",
		"graph": {"kind": "torus2d", "side": 20},
		"agents": 5,
		"rounds": 50,
		"threshold": 1000,
		"seed": 6
	}`)
	waitState(t, srv, snap.ID, "done")
	keys := rawSnapshotKeys(t, srv, snap.ID)
	if _, ok := keys["yes_votes"]; !ok {
		t.Errorf("quorum snapshot is missing yes_votes: %v", keys)
	}
	if v, ok := keys["yes_votes"]; ok && string(v) != "0" {
		t.Errorf("yes_votes = %s, want 0", v)
	}
	if _, ok := keys["decided"]; ok {
		t.Errorf("fixed-horizon quorum snapshot should not carry decided: %v", keys)
	}

	// Adaptive quorum: both fields, even when zero agents decided yet.
	snap = postRun(t, srv, `{
		"kind": "quorum_adaptive",
		"graph": {"kind": "torus2d", "side": 20},
		"agents": 5,
		"rounds": 50,
		"threshold": 1000,
		"seed": 6
	}`)
	waitState(t, srv, snap.ID, "done")
	keys = rawSnapshotKeys(t, srv, snap.ID)
	for _, field := range []string{"yes_votes", "decided"} {
		if _, ok := keys[field]; !ok {
			t.Errorf("adaptive quorum snapshot is missing %s: %v", field, keys)
		}
	}

	// Density: neither field on the wire.
	snap = postRun(t, srv, `{
		"kind": "density",
		"graph": {"kind": "torus2d", "side": 20},
		"agents": 5,
		"rounds": 50,
		"seed": 6
	}`)
	waitState(t, srv, snap.ID, "done")
	keys = rawSnapshotKeys(t, srv, snap.ID)
	for _, field := range []string{"yes_votes", "decided"} {
		if _, ok := keys[field]; ok {
			t.Errorf("density snapshot should not carry %s: %v", field, keys)
		}
	}
}

// rawSnapshotKeys fetches a snapshot as a raw key set, to assert
// field presence rather than decoded values.
func rawSnapshotKeys(t *testing.T, srv *httptest.Server, id string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	keys := map[string]json.RawMessage{}
	if err := json.NewDecoder(resp.Body).Decode(&keys); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestServeQueueFull429 is the backpressure acceptance check: a full
// admission queue turns submissions into 429 + Retry-After instead of
// unbounded queueing.
func TestServeQueueFull429(t *testing.T) {
	srv, _ := newTestServerCfg(t, serveConfig{workers: 1, queueLimit: 1})
	long := func(seed int) string {
		return fmt.Sprintf(`{"kind": "density", "graph": {"kind": "torus2d", "side": 20},
			"agents": 21, "rounds": 1000000000, "seed": %d}`, seed)
	}
	running := postRun(t, srv, long(1)) // occupies the single worker
	queued := postRun(t, srv, long(2))  // fills the queue
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(long(3)))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	errDecode := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit POST = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	if errDecode != nil || e.Error == "" {
		t.Errorf("429 body: %v / %+v", errDecode, e)
	}
	// Draining the queue reopens admission.
	for _, id := range []string{running.ID, queued.ID} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(long(4)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusCreated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never reopened after drain: last status %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeRateLimit429 covers the per-client token bucket.
func TestServeRateLimit429(t *testing.T) {
	srv, _ := newTestServerCfg(t, serveConfig{workers: 2, rate: 0.5, burst: 2})
	body := func(seed int) string {
		return fmt.Sprintf(`{"kind": "density", "graph": {"kind": "torus2d", "side": 20},
			"agents": 5, "rounds": 10, "seed": %d}`, seed)
	}
	postRun(t, srv, body(1))
	postRun(t, srv, body(2))
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body(3)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate POST = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("rate-limit 429 without Retry-After header")
	}
}

// TestServeResultCache: an identical (Spec, seed) submission is served
// from the existing run — same id, cached flag, no recomputation.
func TestServeResultCache(t *testing.T) {
	srv, _ := newTestServer(t)
	body := `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 21, "rounds": 100, "seed": 11}`
	first := postRun(t, srv, body)
	waitState(t, srv, first.ID, "done")

	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached POST = %d, want 200", resp.StatusCode)
	}
	var snap runSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Cached || snap.ID != first.ID {
		t.Fatalf("cached snapshot = %+v, want cached hit of %s", snap, first.ID)
	}

	// A sampled graph carries its recipe as the identity, so adj-based
	// submissions cache too.
	baBody := `{"kind": "density", "graph": {"kind": "ba", "nodes": 200, "degree": 3, "seed": 5}, "agents": 11, "rounds": 50, "seed": 12}`
	baFirst := postRun(t, srv, baBody)
	waitState(t, srv, baFirst.ID, "done")
	resp2, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(baBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var baSnap runSnapshot
	if err := json.NewDecoder(resp2.Body).Decode(&baSnap); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || !baSnap.Cached || baSnap.ID != baFirst.ID {
		t.Fatalf("ba cached submit = %d %+v, want 200 cache hit of %s", resp2.StatusCode, baSnap, baFirst.ID)
	}

	// A different seed misses.
	other := postRun(t, srv, `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 21, "rounds": 100, "seed": 12}`)
	if other.ID == first.ID {
		t.Fatal("different seed hit the cache")
	}

	// -no-cache disables dedup entirely.
	srv2, _ := newTestServerCfg(t, serveConfig{workers: 2, noCache: true})
	a := postRun(t, srv2, body)
	waitState(t, srv2, a.ID, "done")
	b := postRun(t, srv2, body)
	if a.ID == b.ID {
		t.Fatal("-no-cache server deduplicated")
	}
}

// TestServeJournalReplay is the durability acceptance check: kill and
// restart with -data-dir serves completed results byte-identically
// and re-runs interrupted runs under their original ids.
func TestServeJournalReplay(t *testing.T) {
	dir := t.TempDir()
	srv1, s1 := newTestServerCfg(t, serveConfig{workers: 2, dataDir: dir})

	doneBody := `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 21, "rounds": 100, "seed": 21}`
	done := postRun(t, srv1, doneBody)
	waitState(t, srv1, done.ID, "done")
	resultBefore := getBytes(t, srv1.URL+"/v1/runs/"+done.ID+"/result", http.StatusOK)

	// A user-canceled run must stay canceled across restarts.
	userCanceled := postRun(t, srv1, `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 21, "rounds": 1000000000, "seed": 22}`)
	req, _ := http.NewRequest(http.MethodDelete, srv1.URL+"/v1/runs/"+userCanceled.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	waitTerminal(t, srv1, userCanceled.ID, "canceled")

	// Still in flight at the kill: must be re-run after restart.
	interrupted := postRun(t, srv1, `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 21, "rounds": 1000000000, "seed": 23}`)

	// Kill: drain cancels the in-flight run without journaling it as
	// canceled.
	srv1.Close()
	s1.close()

	// Restart over the same data dir.
	srv2, s2 := newTestServerCfg(t, serveConfig{workers: 2, dataDir: dir})
	_ = s2

	// The completed result is served byte-identically, without
	// recomputation.
	resultAfter := getBytes(t, srv2.URL+"/v1/runs/"+done.ID+"/result", http.StatusOK)
	if !bytes.Equal(resultBefore, resultAfter) {
		t.Fatalf("replayed result differs:\nbefore: %s\nafter:  %s", resultBefore, resultAfter)
	}

	// Its snapshot and SSE stream survive too.
	var snap runSnapshot
	getJSON(t, srv2.URL+"/v1/runs/"+done.ID, http.StatusOK, &snap)
	if snap.State != "done" || snap.Round != 100 {
		t.Fatalf("replayed snapshot = %+v", snap)
	}

	// The user-canceled run stays canceled (410 on result).
	getJSON(t, srv2.URL+"/v1/runs/"+userCanceled.ID, http.StatusOK, &snap)
	if snap.State != "canceled" {
		t.Fatalf("user-canceled run replayed as %q", snap.State)
	}
	getBytes(t, srv2.URL+"/v1/runs/"+userCanceled.ID+"/result", http.StatusGone)

	// The interrupted run was re-submitted under its original id and
	// is executing again.
	getJSON(t, srv2.URL+"/v1/runs/"+interrupted.ID, http.StatusOK, &snap)
	if snap.State != "running" && snap.State != "queued" {
		t.Fatalf("interrupted run replayed as %q, want running/queued", snap.State)
	}

	// The journaled result also serves cache hits: an identical
	// submission returns the archived run.
	resp, err := http.Post(srv2.URL+"/v1/runs", "application/json", strings.NewReader(doneBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cachedSnap runSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&cachedSnap); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !cachedSnap.Cached || cachedSnap.ID != done.ID {
		t.Fatalf("archived cache submit = %d %+v, want hit of %s", resp.StatusCode, cachedSnap, done.ID)
	}

	// Fresh ids never collide with journaled ones.
	fresh := postRun(t, srv2, `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 5, "rounds": 10, "seed": 99}`)
	for _, old := range []string{done.ID, userCanceled.ID, interrupted.ID} {
		if fresh.ID == old {
			t.Fatalf("fresh id %s collides with journaled id", fresh.ID)
		}
	}

	// The list covers archived and live runs.
	var list []runSnapshot
	getJSON(t, srv2.URL+"/v1/runs", http.StatusOK, &list)
	if len(list) < 4 {
		t.Fatalf("list after replay = %d entries: %+v", len(list), list)
	}
}

// waitTerminal polls until the run reaches the given terminal state.
func waitTerminal(t *testing.T, srv *httptest.Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var snap runSnapshot
		getJSON(t, srv.URL+"/v1/runs/"+id, http.StatusOK, &snap)
		if snap.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never reached %q: %+v", id, want, snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// getBytes fetches a URL asserting the status and returning the body.
func getBytes(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, wantStatus, body)
	}
	return body
}
