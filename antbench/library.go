package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"antdensity"
	"antdensity/internal/results"
)

// minSetups is the least number of set-up samples setup_s is the
// median of. A server start takes milliseconds and single starts vary
// by half under host load, so the median needs this many.
const minSetups = 11

// compile builds a request's graph and compiles its Spec into a Run:
// the set-up a library user pays before a run starts.
func compile(req request) (*antdensity.Run, error) {
	g, err := buildGraph(req.Spec.Graph)
	if err != nil {
		return nil, err
	}
	spec, err := newSpec(req.Spec, g)
	if err != nil {
		return nil, err
	}
	return spec.NewRun()
}

// execute starts a compiled run and waits for it.
func execute(ctx context.Context, run *antdensity.Run) (antdensity.Output, error) {
	if err := run.Start(ctx); err != nil {
		return antdensity.Output{}, err
	}
	if err := run.Wait(); err != nil {
		return antdensity.Output{}, err
	}
	return run.Output()
}

// encode renders a run's result with results.WriteJSON into buf.
func encode(run *antdensity.Run, buf *bytes.Buffer) (*results.Result, error) {
	res, err := run.Result()
	if err != nil {
		return nil, err
	}
	buf.Reset()
	return res, results.WriteJSON(buf, res)
}

// checkOutput checks a library run's typed output against its request.
func checkOutput(req request, out antdensity.Output, res *results.Result) error {
	switch req.Spec.Kind {
	case "density":
		d, ok := res.Metric("true_density")
		if !ok {
			return fmt.Errorf("result: density result has no true_density metric")
		}
		return checkDensity(out.Estimates, d, req.Spec.Rounds)
	case "netsize":
		if out.NetworkSize == nil {
			return fmt.Errorf("netsize: run has no network-size output")
		}
		return checkNetsize(out.NetworkSize.Size, req.Spec.Graph.Nodes)
	}
	return fmt.Errorf("unknown kind %q", req.Spec.Kind)
}

// loopReport is what an untraced closed loop measured.
type loopReport struct {
	metrics *metricSet
	extra   map[string]float64
	sent    int
}

// runLibraryWorkload is the closed loop of a library workload: one run
// at a time, each compiled, started, waited for and its result taken
// and encoded with results.WriteJSON, until d has passed.
func runLibraryWorkload(ctx context.Context, sched *schedule, d time.Duration, t *tally) loopReport {
	var setups, lats, rates, encodes, allocs []float64
	var buf bytes.Buffer
	// op runs schedule entry i and records it unless it is the warm-up.
	op := func(i int, record bool) {
		req := sched.at(i)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		run, err := compile(req)
		if err != nil {
			t.op(err)
			return
		}
		t1 := time.Now()
		out, err := execute(ctx, run)
		t2 := time.Now()
		var res *results.Result
		if err == nil {
			res, err = encode(run, &buf)
		}
		t3 := time.Now()
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.op(err)
			return
		}
		if record {
			setups = append(setups, t1.Sub(t0).Seconds())
			lats = append(lats, t3.Sub(t0).Seconds())
			rates = append(rates, req.agentRounds()/t2.Sub(t1).Seconds())
			encodes = append(encodes, t3.Sub(t2).Seconds())
			allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		}
		err = checkOutput(req, out, res)
		if err == nil && !record {
			// One JSON round trip per run, on the warm-up: decoding
			// every result would double the loop's work for no new
			// coverage.
			err = checkResultJSON(buf.Bytes(), req)
		}
		t.op(err)
	}
	// The warm-up grows the heap and faults in the code before timing.
	op(0, false)
	n := 1
	for start := time.Now(); n == 1 || time.Since(start) < d; n++ {
		op(n, true)
	}
	for i := n; len(setups) < minSetups; i++ {
		t0 := time.Now()
		run, err := compile(sched.at(i))
		if err != nil {
			t.op(err)
			break
		}
		setups = append(setups, time.Since(t0).Seconds())
		_ = run // compiled only to time set-up; never started
	}
	m := newMetricSet(endToEnd)
	m.set("agent_rounds_per_s", median(rates))
	m.set("setup_s", median(setups))
	m.set("requests_per_s", float64(len(lats))/sum(lats))
	m.set("peak_rss_mb", selfPeakRSSMB())
	extra := map[string]float64{
		"alloc_mb":        median(allocs),
		"request_s_p50":   quantile(lats, 0.5),
		"request_s_p90":   quantile(lats, 0.9),
		"result_encode_s": median(encodes),
	}
	return loopReport{metrics: m, extra: extra, sent: n}
}

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
