package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"antdensity/internal/journal"
)

// clients is how many closed-loop HTTP clients drive the server, each
// over at most one connection.
const clients = 2

// server is one `antdensity serve` process on a loopback port with a
// fresh data directory.
type server struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	stderr bytes.Buffer
	done   chan struct{} // closed once the process has exited
	err    error         // the process's exit error, set before done closes
}

// startServer launches bin as a server journaling to a new directory
// under parent.
func startServer(bin, parent string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	dir, err := os.MkdirTemp(parent, "serve-")
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, dir: dir, done: make(chan struct{})}
	s.cmd = exec.Command(bin, "serve", "-addr", addr, "-data-dir", dir)
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start server: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// waitReady posts body until the server accepts it and returns the
// time from process start to that first accepted request.
func (s *server) waitReady(c *http.Client, body []byte, start time.Time) (time.Duration, error) {
	deadline := start.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return 0, fmt.Errorf("server exited before accepting a request: %v: %s", s.err, s.stderr.String())
		default:
		}
		resp, err := c.Post(s.base+"/v1/runs", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
			return 0, fmt.Errorf("first request: status %d", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("server did not accept a request within 30s")
}

// drain sends SIGTERM and waits for a clean exit: the server's drain
// path must end the process with status 0.
func (s *server) drain() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("drain: signal: %w", err)
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("drain: server still running 30s after SIGTERM")
	}
	if s.err != nil {
		return fmt.Errorf("drain: server exited with %v: %s", s.err, s.stderr.String())
	}
	return nil
}

// kill stops the process if it is still running and waits for it.
func (s *server) kill() {
	select {
	case <-s.done:
	default:
		s.cmd.Process.Kill()
		<-s.done
	}
}

// close kills the process if needed and removes its data directory.
func (s *server) close() {
	s.kill()
	os.RemoveAll(s.dir)
}

// peakRSSMB is the exited server's peak resident set size.
func (s *server) peakRSSMB() float64 {
	<-s.done
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// journalBytes is the size of the server's journal file.
func (s *server) journalBytes() (int64, error) {
	fi, err := os.Stat(filepath.Join(s.dir, journal.FileName))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// newHTTPClient returns a client holding at most `clients` loopback
// connections and no proxy.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
	}}
}

// httpResult is one request's trip through the server.
type httpResult struct {
	id        string
	rejected  int  // 429 responses before acceptance
	frames    int  // SSE frames, the end frame included
	staleEnd  bool // the end frame named the run as still running
	submit    time.Duration
	done      time.Duration // POST response to the end frame
	result    time.Duration
	total     time.Duration
	resultRaw []byte
}

// submitResponse is the part of a run snapshot the client reads.
type submitResponse struct {
	ID string `json:"id"`
}

// do sends one request: POST the spec (waiting out 429s), follow the
// run's events to the end frame, then GET its result. A non-nil tr
// records the three phases under one request span.
func do(ctx context.Context, c *http.Client, base string, body []byte, tr *tracer, idx int) (httpResult, error) {
	var r httpResult
	t0 := time.Now()
	root := tr.begin("serve.request", 0, idx)
	defer tr.end(root)
	sp := tr.begin("serve.submit", root, idx)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/runs", bytes.NewReader(body))
		if err != nil {
			return r, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.Do(req)
		if err != nil {
			return r, fmt.Errorf("submit: %w", err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return r, fmt.Errorf("submit: %w", err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			r.rejected++
			wait, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			if wait < 1 {
				wait = 1
			}
			select {
			case <-time.After(time.Duration(wait) * time.Second):
			case <-ctx.Done():
				return r, ctx.Err()
			}
			continue
		}
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			return r, fmt.Errorf("submit: status %d: %s", resp.StatusCode, b)
		}
		var sr submitResponse
		if err := json.Unmarshal(b, &sr); err != nil || sr.ID == "" {
			return r, fmt.Errorf("submit: bad response %q", b)
		}
		r.id = sr.ID
		break
	}
	tr.end(sp)
	t1 := time.Now()
	sp = tr.begin("serve.events", root, idx)
	frames, stale, err := followEvents(ctx, c, base+"/v1/runs/"+r.id+"/events")
	if err != nil {
		return r, err
	}
	r.frames, r.staleEnd = frames, stale
	tr.end(sp)
	t2 := time.Now()
	sp = tr.begin("serve.result", root, idx)
	raw, err := getResult(ctx, c, base+"/v1/runs/"+r.id+"/result")
	if err != nil {
		return r, err
	}
	tr.end(sp)
	t3 := time.Now()
	r.resultRaw = raw
	r.submit, r.done, r.result, r.total = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	return r, nil
}

// followEvents reads an SSE stream to its end frame and returns the
// number of frames and whether the end frame named the run as still
// running.
func followEvents(ctx context.Context, c *http.Client, url string) (int, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, false, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, false, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	frames := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "event: ") {
			continue
		}
		frames++
		if line == "event: end" {
			// Read the end frame's data line, then let the server
			// close the stream.
			if !sc.Scan() || !strings.HasPrefix(sc.Text(), "data: ") {
				return frames, false, fmt.Errorf("events: end frame without data")
			}
			// Whether the run succeeded is the result request's to
			// tell; an end frame naming a non-terminal state is only
			// counted.
			stale := strings.Contains(sc.Text(), `"running"`)
			io.Copy(io.Discard, resp.Body)
			return frames, stale, nil
		}
	}
	if err := sc.Err(); err != nil {
		return frames, false, fmt.Errorf("events: %w", err)
	}
	return frames, false, errors.New("events: stream closed before the end frame")
}

// getResult fetches a finished run's result bytes.
func getResult(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: status %d: %s", resp.StatusCode, b)
	}
	return b, nil
}

// served is one completed request of a serve loop.
type served struct {
	idx int
	req request
	res httpResult
}

// drive runs the closed loop: each of the clients takes the next
// schedule entry, sends it and waits for its result, until stop
// reports true or the schedule entries below limit are used up
// (limit < 0 means no limit). It returns the completed requests in
// schedule order and the failures.
func drive(ctx context.Context, c *http.Client, base string, sched *schedule, limit int, stop func() bool, tr *tracer) ([]served, []error) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		done []served
		errs []error
		wg   sync.WaitGroup
	)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop() {
				i := int(next.Add(1) - 1)
				if limit >= 0 && i >= limit {
					return
				}
				req := sched.at(i)
				res, err := do(ctx, c, base, req.body(), tr, i)
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("request %d (%s): %w", i, req.Class, err))
				} else {
					done = append(done, served{idx: i, req: req, res: res})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(done, func(i, j int) bool { return done[i].idx < done[j].idx })
	return done, errs
}

// checkServed checks every result: it decodes and passes checkResult,
// and a cached duplicate — a request the server answered with an
// earlier request's run id — was sent the same spec and gets the same
// bytes as that earlier request.
func checkServed(done []served, t *tally) {
	first := map[string]served{}
	for _, d := range done {
		err := checkResultJSON(d.res.resultRaw, d.req)
		if orig, ok := first[d.res.id]; ok {
			if !bytes.Equal(orig.req.body(), d.req.body()) {
				err = firstErr(err, fmt.Errorf("dedup: run %s answered two different specs", d.res.id))
			}
			err = firstErr(err, checkDuplicate(orig.res.resultRaw, d.res.resultRaw))
		} else {
			first[d.res.id] = d
		}
		t.op(err)
	}
}

// probeRequest is the tiny spec a starting server must accept. The
// generators draw 64-bit seeds, so none repeats its seed in practice.
var probeRequest = request{Class: "probe", Spec: wireSpec{
	Kind: "density", Graph: wireGraph{Kind: "torus2d", Side: 20}, Agents: 41, Rounds: 200, Seed: 1,
}}

// startReady starts a server and measures its set-up: process start to
// the first accepted request.
func startReady(bin, parent string, c *http.Client) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(bin, parent)
	if err != nil {
		return nil, 0, err
	}
	d, err := s.waitReady(c, probeRequest.body(), t0)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	return s, d, nil
}

// runServeWorkload is the serve workload's untraced run: set-up is
// measured over minSetups server starts (each drained with SIGTERM,
// which is checked), then the last server takes the closed loop for d.
func runServeWorkload(ctx context.Context, bin, outDir string, sched *schedule, d time.Duration, t *tally) (loopReport, error) {
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	var setups []float64
	var srv *server
	for k := 0; k < minSetups; k++ {
		s, dur, err := startReady(bin, outDir, c)
		if err != nil {
			return loopReport{}, err
		}
		setups = append(setups, dur.Seconds())
		if k < minSetups-1 {
			c.CloseIdleConnections()
			t.op(s.drain())
			s.close()
			continue
		}
		srv = s
	}
	defer srv.close()
	start := time.Now()
	done, errs := drive(ctx, c, srv.base, sched, -1, func() bool { return time.Since(start) >= d }, nil)
	elapsed := time.Since(start)
	c.CloseIdleConnections()
	t.op(srv.drain())
	for _, err := range errs {
		t.op(err)
	}
	checkServed(done, t)
	var lats, tiny []float64
	var agentRounds, stale float64
	for _, s := range done {
		lats = append(lats, s.res.total.Seconds())
		if s.req.Class == "tiny" {
			tiny = append(tiny, s.res.total.Seconds())
		}
		agentRounds += s.req.agentRounds()
		if s.res.staleEnd {
			stale++
		}
	}
	m := newMetricSet(endToEnd)
	m.set("agent_rounds_per_s", agentRounds/elapsed.Seconds())
	m.set("setup_s", median(setups))
	m.set("requests_per_s", float64(len(done))/elapsed.Seconds())
	m.set("peak_rss_mb", srv.peakRSSMB())
	extra := map[string]float64{
		"request_s_p50":      quantile(lats, 0.5),
		"request_s_p90":      quantile(lats, 0.9),
		"tiny_request_s_p50": quantile(tiny, 0.5),
		"stale_end_frames":   stale,
	}
	return loopReport{metrics: m, extra: extra, sent: len(done) + len(errs)}, nil
}
