package main

// The loadtest subcommand drives the serve API with thousands of
// concurrent submissions and reports the latency/throughput/cache
// profile as JSON, to stdout unless -out names a file. By default it
// spins up an in-process server on a loopback port, so the benchmark
// is self-contained; -addr points it at an external instance instead.
//
// Each virtual client loops: POST a small density spec, then poll the
// result endpoint until the structured result lands. A -dup fraction
// of the submissions reuse an earlier (Spec, seed), exercising the
// dedup cache; 429 responses are counted and retried after a short
// backoff, exercising backpressure without failing the run.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"antdensity/internal/benchenv"
)

type loadtestReport struct {
	Env    benchenv.Env `json:"env"`
	Config struct {
		Submissions int     `json:"submissions"`
		Concurrency int     `json:"concurrency"`
		DupFraction float64 `json:"dup_fraction"`
		Workers     int     `json:"workers"`
		QueueLimit  int     `json:"queue_limit"`
		Target      string  `json:"target"`
	} `json:"config"`
	DurationSec   float64     `json:"duration_sec"`
	ThroughputRPS float64     `json:"throughput_rps"`
	SubmitMS      percentiles `json:"submit_latency_ms"`
	ResultMS      percentiles `json:"result_latency_ms"`
	CacheHits     int         `json:"cache_hits"`
	CacheHitRate  float64     `json:"cache_hit_rate"`
	Rejected429   int64       `json:"rejected_429"`
	Errors        int64       `json:"errors"`
}

type percentiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

func cmdLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	addr := fs.String("addr", "", "target server address (empty = in-process server)")
	n := fs.Int("n", 2000, "total submissions")
	conc := fs.Int("c", 64, "concurrent clients")
	dup := fs.Float64("dup", 0.5, "fraction of submissions reusing an earlier (Spec, seed)")
	workers := fs.Int("workers", 0, "in-process server workers (0 = GOMAXPROCS)")
	queueLimit := fs.Int("queue-limit", 0, "in-process server queue limit (0 = unbounded)")
	out := fs.String("out", "-", "report path (- = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 || *conc < 1 || *dup < 0 || *dup >= 1 {
		return fmt.Errorf("loadtest: need n >= 1, c >= 1, dup in [0, 1)")
	}

	base := *addr
	if base == "" {
		s, err := newServer(serveConfig{workers: *workers, queueLimit: *queueLimit})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return err
		}
		srv := &http.Server{Handler: s.handler()}
		go srv.Serve(ln)
		defer func() {
			srv.Close()
			s.close()
		}()
		base = "http://" + ln.Addr().String()
	} else if !strings.HasPrefix(base, "http") {
		base = "http://" + base
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *conc * 2,
		MaxIdleConnsPerHost: *conc * 2,
	}}

	// Seed schedule: map the submission index onto uniqueSeeds distinct
	// seeds so that duplicates land adjacent to their originals —
	// mimicking clients racing to submit the same spec, and keeping the
	// original inside the Manager's retention window when its duplicate
	// arrives.
	uniqueSeeds := int(float64(*n) * (1 - *dup))
	if uniqueSeeds < 1 {
		uniqueSeeds = 1
	}
	body := func(i int) string {
		seed := i * uniqueSeeds / *n
		return fmt.Sprintf(`{"kind": "density", "graph": {"kind": "torus2d", "side": 20},
			"agents": 5, "rounds": 50, "seed": %d}`, seed+1)
	}

	var (
		next      atomic.Int64
		rejected  atomic.Int64
		errs      atomic.Int64
		cacheHits atomic.Int64
		mu        sync.Mutex
		submitLat []time.Duration
		resultLat []time.Duration
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				sLat, rLat, cached, err := driveOne(client, base, body(i), &rejected)
				if err != nil {
					errs.Add(1)
					continue
				}
				if cached {
					cacheHits.Add(1)
				}
				mu.Lock()
				submitLat = append(submitLat, sLat)
				resultLat = append(resultLat, rLat)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var rep loadtestReport
	rep.Env = benchenv.Capture()
	rep.Config.Submissions = *n
	rep.Config.Concurrency = *conc
	rep.Config.DupFraction = *dup
	rep.Config.Workers = *workers
	rep.Config.QueueLimit = *queueLimit
	rep.Config.Target = base
	rep.DurationSec = elapsed.Seconds()
	rep.ThroughputRPS = float64(len(submitLat)) / elapsed.Seconds()
	rep.SubmitMS = summarizeMS(submitLat)
	rep.ResultMS = summarizeMS(resultLat)
	rep.CacheHits = int(cacheHits.Load())
	rep.CacheHitRate = float64(cacheHits.Load()) / float64(max(1, len(submitLat)))
	rep.Rejected429 = rejected.Load()
	rep.Errors = errs.Load()

	b, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "antdensity: loadtest: %d ok, %d cache hits (%.0f%%), %d throttled, %.0f req/s -> %s\n",
		len(submitLat), rep.CacheHits, rep.CacheHitRate*100, rep.Rejected429, rep.ThroughputRPS, *out)
	return nil
}

// driveOne submits one spec and follows it to a served result,
// retrying 429s with the server's own backoff hint. It returns the
// submit latency (final, accepted POST) and the submit-to-result
// latency.
func driveOne(client *http.Client, base, body string, rejected *atomic.Int64) (submit, result time.Duration, cached bool, err error) {
	t0 := time.Now()
	var id string
	for {
		ts := time.Now()
		resp, postErr := client.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
		if postErr != nil {
			return 0, 0, false, postErr
		}
		var snap runSnapshot
		decErr := json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusCreated, http.StatusOK:
			if decErr != nil {
				return 0, 0, false, decErr
			}
			submit = time.Since(ts)
			id = snap.ID
			cached = snap.Cached
		case http.StatusTooManyRequests:
			rejected.Add(1)
			time.Sleep(5 * time.Millisecond)
			continue
		default:
			return 0, 0, false, fmt.Errorf("submit: status %d", resp.StatusCode)
		}
		break
	}
	// Poll the result endpoint until the structured result is served.
	for {
		resp, getErr := client.Get(base + "/v1/runs/" + id + "/result")
		if getErr != nil {
			return 0, 0, false, getErr
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return submit, time.Since(t0), cached, nil
		case http.StatusAccepted:
			time.Sleep(2 * time.Millisecond)
		default:
			return 0, 0, false, fmt.Errorf("result %s: status %d", id, resp.StatusCode)
		}
	}
}

// summarizeMS reduces a latency sample to percentiles in milliseconds.
func summarizeMS(lat []time.Duration) percentiles {
	if len(lat) == 0 {
		return percentiles{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(lat)-1))
		return float64(lat[i]) / float64(time.Millisecond)
	}
	return percentiles{P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: at(1)}
}
