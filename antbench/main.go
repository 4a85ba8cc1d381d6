// Command antbench is the repository's benchmark. One invocation runs
// one workload for a fixed time, checks every output it gets, and
// prints a report line followed by the result line
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json, measured with tracing off. With -trace 1 they are the
// per-layer metrics, taken by a separate traced replay of the same
// seeded inputs that times calls into each layer's public functions.
//
// Run it from the repository root through run.sh, which builds this
// command and the antdensity server from source:
//
//	bash antbench/run.sh --workload density-100k --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"antdensity/internal/benchenv"
)

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// loadShape records how much concurrency the run drove, so a run that
// used more client goroutines or connections than CPUs is flagged.
type loadShape struct {
	Clients      int  `json:"client_goroutines"`
	Connections  int  `json:"connections"`
	NProc        int  `json:"nproc"`
	ExceedsNProc bool `json:"exceeds_nproc"`
}

// report is the line before the result: the environment, the inputs'
// digest, every check's failures, the metric map and the figures that
// are not metrics of every workload.
type report struct {
	Workload       string             `json:"workload"`
	Seed           uint64             `json:"seed"`
	Trace          bool               `json:"trace"`
	Env            benchenv.Env       `json:"env"`
	Load           loadShape          `json:"load"`
	ScheduleDigest string             `json:"schedule_digest"`
	RequestsSent   int                `json:"requests_sent"`
	FailedFrac     float64            `json:"failed_frac"`
	Failures       []string           `json:"failures,omitempty"`
	Extra          map[string]float64 `json:"extra,omitempty"`
	Moves          map[string]string  `json:"moves,omitempty"`
	TraceFile      string             `json:"trace_file,omitempty"`
	TracedS        float64            `json:"traced_s,omitempty"`
	UntracedS      float64            `json:"untraced_s,omitempty"`
}

// options are the command's flags.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	serverBin string
	outDir    string
	sz        sizes
}

func main() {
	var o options
	fs := flag.NewFlagSet("antbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long the run measures")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced replay and reports the per-layer metrics")
	fs.StringVar(&o.serverBin, "server-bin", filepath.Join(".bench_build", "antdensity"), "the built antdensity binary")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "run"), "directory for server data and trace files")
	printConfig := fs.Bool("print-config", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *printConfig {
		os.Stdout.Write(configJSON())
		return
	}
	o.sz = fullSizes
	// A run must end within 180 seconds. Past this deadline every run
	// and request still in flight is cancelled and counts as failed.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rep, res, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "antbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "antbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "antbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// run executes one benchmark run and returns its report and result.
func run(ctx context.Context, o options) (report, result, error) {
	w, err := findWorkload(o.sz, o.workload)
	if err != nil {
		return report{}, result{}, err
	}
	if o.trace != 0 && o.trace != 1 {
		return report{}, result{}, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return report{}, result{}, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if w.Serve || o.trace == 1 {
		if _, err := os.Stat(o.serverBin); err != nil {
			return report{}, result{}, fmt.Errorf("server binary: %w", err)
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return report{}, result{}, err
	}
	sched := newSchedule(w, o.seed)
	rep := report{
		Workload:       w.Name,
		Seed:           o.seed,
		Trace:          o.trace == 1,
		Env:            benchenv.Capture(),
		ScheduleDigest: sched.digest(),
	}
	rep.Load = loadShape{Clients: 1, NProc: runtime.NumCPU()}
	if w.Serve || o.trace == 1 {
		rep.Load = loadShape{Clients: clients, Connections: clients, NProc: runtime.NumCPU()}
	}
	rep.Load.ExceedsNProc = rep.Load.Clients > rep.Load.NProc || rep.Load.Connections > rep.Load.NProc

	var t tally
	var ms *metricSet
	d := time.Duration(o.seconds * float64(time.Second))
	switch {
	case o.trace == 1:
		tr, err := runTraced(ctx, w, sched, o.serverBin, o.outDir, &t)
		if err != nil {
			return report{}, result{}, err
		}
		ms = tr.metrics
		rep.RequestsSent = tr.requests
		rep.TracedS, rep.UntracedS, rep.Extra = tr.tracedS, tr.untracedS, tr.extra
		rep.TraceFile = filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", w.Name, o.seed))
		if err := writeTrace(rep.TraceFile, tr.spans); err != nil {
			return report{}, result{}, err
		}
		rep.Moves = map[string]string{}
		for _, m := range perLayer {
			rep.Moves[m.Name] = m.Moves
		}
	case w.Serve:
		sr, err := runServeWorkload(ctx, o.serverBin, o.outDir, sched, d, &t)
		if err != nil {
			return report{}, result{}, err
		}
		ms, rep.Extra, rep.RequestsSent = sr.metrics, sr.extra, sr.sent
	default:
		lr := runLibraryWorkload(ctx, sched, d, &t)
		ms, rep.Extra, rep.RequestsSent = lr.metrics, lr.extra, lr.sent
	}
	metrics, missing := ms.out()
	for _, name := range missing {
		t.op(fmt.Errorf("metric %s was not measured", name))
	}
	rep.Failures = t.errs
	if t.attempted > 0 {
		rep.FailedFrac = float64(t.failed) / float64(t.attempted)
	}
	return rep, result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}, nil
}
