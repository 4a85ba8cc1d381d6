package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"antdensity/internal/results"
)

// smallSizes run every workload in well under a second.
var smallSizes = sizes{
	Side100k: 32, Agents100k: 300, Rounds100k: 20,
	TinySide: 10, TinyAgents: 31, TinyRounds: 60,
	MediumSide: 32, MediumAgents: 200, MediumRounds: 20,
	NetNodes: 1000, NetDegree: 3, NetWalkers: 200, NetRounds: 30,
	MixTraceRequests: 12,
}

// serverBin is the antdensity binary TestMain builds for the serve
// workload and the traced runs.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "antbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin = filepath.Join(dir, "antdensity")
	build := exec.Command("go", "build", "-o", serverBin, "antdensity/cmd/antdensity")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building the server: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func smallOptions(t *testing.T, workload string, trace int) options {
	return options{
		workload:  workload,
		seed:      7,
		seconds:   0.3,
		trace:     trace,
		serverBin: serverBin,
		outDir:    t.TempDir(),
		sz:        smallSizes,
	}
}

// TestBenchmarkJSON pins the checked-in BENCHMARK.json to the metric
// and workload tables.
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := configJSON(); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with -print-config:\n%s", want)
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it moves", m.Name)
		}
	}
}

// TestEveryMetricEmitted runs every workload at reduced sizes, traced
// and untraced, and requires every metric of the matching table with
// its unit, and no failed check.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads(smallSizes) {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace%d", w.Name, trace), func(t *testing.T) {
				rep, res, err := run(context.Background(), smallOptions(t, w.Name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, rep.Failures)
				}
				defs := endToEnd
				if trace == 1 {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if v.Unit != d.Unit {
						t.Errorf("metric %s unit %q, want %q", d.Name, v.Unit, d.Unit)
					}
					if trace == 0 && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
					}
				}
				if rep.ScheduleDigest == "" || rep.Env.NumCPU < 1 {
					t.Errorf("report lacks the input digest or the env block: %+v", rep)
				}
			})
		}
	}
}

// TestScheduleDeterministic shows the inputs depend on the seed only.
func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads(fullSizes) {
		a, b, c := newSchedule(w, 3), newSchedule(w, 3), newSchedule(w, 4)
		// Draw b out of order: entry i must not depend on who asks first.
		b.at(40)
		if a.digest() != b.digest() {
			t.Errorf("%s: same seed, different inputs", w.Name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: different seeds, same inputs", w.Name)
		}
	}
	mix, err := findWorkload(fullSizes, "serve-mix")
	if err != nil {
		t.Fatal(err)
	}
	s := newSchedule(mix, 1)
	classes := map[string]int{}
	seen := map[string]bool{}
	dups := 0
	for i := 0; i < 2000; i++ {
		r := s.at(i)
		classes[r.Class]++
		if r.Class == "tiny" {
			if seen[string(r.body())] {
				dups++
			}
			seen[string(r.body())] = true
		}
	}
	if classes["tiny"] != 1000 || classes["medium"] != 800 || classes["netsize"] != 200 {
		t.Errorf("class counts %v, want tiny 1000, medium 800, netsize 200", classes)
	}
	if dups != classes["tiny"]/2 {
		t.Errorf("%d of %d tiny specs are duplicates, want half", dups, classes["tiny"])
	}
}

// smallReplay replays a small request traced and returns it with its
// encoded result.
func smallReplay(t *testing.T, req request) (replayOut, []byte, *tracer) {
	t.Helper()
	tr := newTracer()
	var buf bytes.Buffer
	rep, err := replay(context.Background(), req, 0, req.Spec.Kind == "density", tr, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplay(req, rep, buf.Bytes()); err != nil {
		t.Fatalf("uncorrupted replay rejected: %v", err)
	}
	return rep, append([]byte(nil), buf.Bytes()...), tr
}

func smallRequest(t *testing.T, workload string) request {
	t.Helper()
	w, err := findWorkload(smallSizes, workload)
	if err != nil {
		t.Fatal(err)
	}
	return newSchedule(w, 5).at(0)
}

// smallNetsizeRequest returns the first netsize request of serve-mix's
// reduced schedule.
func smallNetsizeRequest(t *testing.T) request {
	t.Helper()
	w, err := findWorkload(smallSizes, "serve-mix")
	if err != nil {
		t.Fatal(err)
	}
	sched := newSchedule(w, 5)
	for i := 0; ; i++ {
		if req := sched.at(i); req.Spec.Kind == "netsize" {
			return req
		}
	}
}

// TestChecksRejectCorruption corrupts each checked output and requires
// its check to fail.
func TestChecksRejectCorruption(t *testing.T) {
	dreq := smallRequest(t, "density-100k")
	drep, djson, _ := smallReplay(t, dreq)
	nreq := smallNetsizeRequest(t)
	nrep, njson, _ := smallReplay(t, nreq)

	corrupt := map[string]func() error{
		"density estimate NaN": func() error {
			ests := append([]float64(nil), drep.out.Estimates...)
			ests[3] = math.NaN()
			return checkDensity(ests, drep.res.Metrics["true_density"], dreq.Spec.Rounds)
		},
		"density mean off": func() error {
			ests := append([]float64(nil), drep.out.Estimates...)
			for i := range ests {
				ests[i] *= 4
			}
			return checkDensity(ests, drep.res.Metrics["true_density"], dreq.Spec.Rounds)
		},
		"replay counts differ": func() error {
			counts := append([]int64(nil), drep.counts...)
			counts[0]++
			return checkIdentical(counts, dreq.Spec.Rounds, drep.out.Estimates)
		},
		"replay estimate differs by one ulp": func() error {
			rep := drep
			rep.out.Estimates = append([]float64(nil), drep.out.Estimates...)
			rep.out.Estimates[1] = math.Nextafter(rep.out.Estimates[1], 2)
			return checkReplay(dreq, rep, djson)
		},
		"netsize replay differs": func() error {
			rep := nrep
			got := *nrep.netsize
			got.C = math.Nextafter(got.C, 1)
			rep.netsize = &got
			return checkReplay(nreq, rep, njson)
		},
		"result json missing a row": func() error {
			res, err := results.ReadJSON(bytes.NewReader(djson))
			if err != nil {
				return nil // the uncorrupted bytes must decode
			}
			res.Series[0].Rows = res.Series[0].Rows[1:]
			var b bytes.Buffer
			if err := results.WriteJSON(&b, res); err != nil {
				return nil
			}
			return checkResultJSON(b.Bytes(), dreq)
		},
		"result json truncated": func() error {
			return checkResultJSON(djson[:len(djson)/2], dreq)
		},
		"netsize estimate off": func() error {
			return checkNetsize(nrep.netsize.Size*2, nrep.nodes)
		},
		"netsize result json off": func() error {
			res, err := results.ReadJSON(bytes.NewReader(njson))
			if err != nil {
				return nil
			}
			res.SetMetric("size", math.Inf(1))
			var b bytes.Buffer
			if err := results.WriteJSON(&b, res); err != nil {
				return nil
			}
			return checkResultJSON(b.Bytes(), nreq)
		},
		"duplicate bytes differ": func() error {
			dup := append([]byte(nil), djson...)
			dup[len(dup)/2] ^= 1
			return checkDuplicate(djson, dup)
		},
		"server dies on SIGTERM": func() error {
			s := &server{done: make(chan struct{}), dir: t.TempDir()}
			s.cmd = exec.Command("sleep", "60")
			if err := s.cmd.Start(); err != nil {
				t.Fatal(err)
			}
			go func() { s.err = s.cmd.Wait(); close(s.done) }()
			defer s.close()
			return s.drain()
		},
	}
	for name, f := range corrupt {
		if err := f(); err == nil {
			t.Errorf("%s: check accepted a corrupted output", name)
		}
	}
	// The uncorrupted outputs pass the same checks.
	if err := firstErr(
		checkResultJSON(djson, dreq), checkResultJSON(njson, nreq),
		checkDuplicate(djson, append([]byte(nil), djson...)),
		checkNetsize(nrep.netsize.Size, nrep.nodes),
	); err != nil {
		t.Errorf("uncorrupted output rejected: %v", err)
	}
}

// TestSelfTimes requires non-negative self times that sum to the
// traced total of each request.
func TestSelfTimes(t *testing.T) {
	for _, req := range []request{smallRequest(t, "density-100k"), smallNetsizeRequest(t)} {
		wl := req.Spec.Kind
		_, _, tr := smallReplay(t, req)
		spans := tr.finished()
		var total, selfSum int64
		for _, s := range spans {
			if s.Self < 0 {
				t.Errorf("%s: span %s self time %d < 0", wl, s.Name, s.Self)
			}
			selfSum += s.Self
			if s.Parent == 0 {
				total += s.dur()
			}
		}
		if total <= 0 || selfSum != total {
			t.Errorf("%s: self times sum to %d ns, traced total %d ns", wl, selfSum, total)
		}
		names := map[string]bool{}
		for _, s := range spans {
			names[s.Name] = true
		}
		for _, n := range []string{"graph.build", "sim.world_build", "sim.round", "sim.count", "core.observe",
			"netsize.estimate", "netsize.round", "netsize.step", "run.new", "run.exec", "results.encode"} {
			if !names[n] {
				t.Errorf("%s: no %s span", wl, n)
			}
		}
	}
}

// TestWithSelf checks the self-time arithmetic on a hand-built trace,
// including a child that overhangs its parent and overlapping siblings.
func TestWithSelf(t *testing.T) {
	spans := withSelf([]span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "c", Start: 35, End: 50},
		{ID: 5, Parent: 1, Name: "open", Start: 70, End: -1},
	})
	want := map[string]int64{"root": 50, "a": 25, "b": 30, "c": 15}
	if len(spans) != len(want) {
		t.Fatalf("got %d closed spans, want %d", len(spans), len(want))
	}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s self %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

// TestBareDirectoryFails runs run.sh in a directory holding only
// BENCHMARK.json and the benchmark's files: it must fail without a
// result line.
func TestBareDirectoryFails(t *testing.T) {
	if testing.Short() {
		t.Skip("copies the benchmark and starts a build")
	}
	dir := t.TempDir()
	if err := os.CopyFS(filepath.Join(dir, "antbench"), os.DirFS(".")); err != nil {
		t.Fatal(err)
	}
	cfg, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), cfg, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "antbench/run.sh", "--workload", "density-100k", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	start := time.Now()
	err = cmd.Run()
	if err == nil {
		t.Fatalf("run.sh succeeded in a bare directory; stdout:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("bare-directory run printed a result: %s", stdout.String())
	}
	if time.Since(start) > 3*time.Minute {
		t.Errorf("bare-directory run took %v", time.Since(start))
	}
}
