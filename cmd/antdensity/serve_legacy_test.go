package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"antdensity/internal/journal"
)

// legacyJournal was written by a serve process from before the
// snapshot-throttle request field was removed, and then killed: run
// r000001 had finished (its result is journaled), run r000002 was
// still in flight. Both submit records carry the removed field.
const legacyJournal = "testdata/legacy-journal/runs.jsonl"

// legacySubmit returns the wire request journaled for id in the
// legacy journal.
func legacySubmit(t *testing.T, id string) []byte {
	t.Helper()
	f, err := os.Open(legacyJournal)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec journal.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type == journal.TypeSubmit && rec.ID == id {
			return rec.Spec
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("legacy journal has no submit record for %s", id)
	return nil
}

// TestServeRejectsRemovedRequestField posts a request carrying the
// removed snapshot-throttle field: the strict decoder answers 400 and
// the error names the field.
func TestServeRejectsRemovedRequestField(t *testing.T) {
	body := legacySubmit(t, "r000001")
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req runRequest
	want := dec.Decode(&req)
	if want == nil || !strings.Contains(want.Error(), "unknown field") {
		t.Fatalf("legacy request decodes strictly with %v, want an unknown-field error", want)
	}
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(got.Error, want.Error()) {
		t.Fatalf("POST legacy request = %d %q, want 400 naming the field (%q)", resp.StatusCode, got.Error, want)
	}
}

// TestServeJournalReplayLegacyRequests restarts over the legacy
// journal: replay decodes journaled requests leniently, so the done
// run is still served from the archive, byte-identical to this
// server computing the same request afresh, and the interrupted run
// resumes under its original id.
func TestServeJournalReplayLegacyRequests(t *testing.T) {
	raw, err := os.ReadFile(legacyJournal)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journal.FileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServerCfg(t, serveConfig{workers: 2, dataDir: dir})

	var snap runSnapshot
	getJSON(t, srv.URL+"/v1/runs/r000001", http.StatusOK, &snap)
	if snap.State != "done" || snap.Round != 100 {
		t.Fatalf("replayed done run = %+v", snap)
	}
	archived := getBytes(t, srv.URL+"/v1/runs/r000001/result", http.StatusOK)

	var req runRequest
	if err := json.Unmarshal(legacySubmit(t, "r000001"), &req); err != nil {
		t.Fatal(err)
	}
	current, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := newTestServer(t)
	recomputed := postRun(t, fresh, string(current))
	if recomputed.ID != "r000001" {
		t.Fatalf("fresh server assigned %s, want r000001 (result bytes carry the id)", recomputed.ID)
	}
	waitState(t, fresh, recomputed.ID, "done")
	live := getBytes(t, fresh.URL+"/v1/runs/r000001/result", http.StatusOK)
	if !bytes.Equal(archived, live) {
		t.Fatalf("archived result differs from a fresh computation:\narchived: %s\nfresh:    %s", archived, live)
	}

	getJSON(t, srv.URL+"/v1/runs/r000002", http.StatusOK, &snap)
	if (snap.State != "running" && snap.State != "queued") || snap.MaxRounds != 1000000000 {
		t.Fatalf("interrupted run replayed as %+v, want it resumed under its id", snap)
	}
}
