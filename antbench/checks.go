package main

import (
	"bytes"
	"fmt"
	"math"
	"sync"

	"antdensity/internal/core"
	"antdensity/internal/results"
)

// Theorem 1 parameters of the density tolerance: the Spec defaults
// for delta and c1.
const (
	toleranceDelta = 0.05
	toleranceC1    = 0.35
)

// netsizeTolerance is the relative size error the netsize package's
// own irregular-graph test accepts (TestEstimateSizeIrregularGraphDegreeCorrection).
const netsizeTolerance = 0.3

// checkDensity requires finite, non-negative estimates whose mean lies
// within the Theorem 1 error bound eps·d of the true density d after
// t rounds. eps bounds a single agent's error with probability
// 1-delta, so it also bounds the error of the mean.
func checkDensity(ests []float64, trueDensity float64, t int) error {
	if len(ests) == 0 {
		return fmt.Errorf("density: no estimates")
	}
	if !(trueDensity > 0) || math.IsInf(trueDensity, 0) {
		return fmt.Errorf("density: true density %v is not positive", trueDensity)
	}
	var s float64
	for i, e := range ests {
		if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
			return fmt.Errorf("density: agent %d estimate %v is not finite and non-negative", i, e)
		}
		s += e
	}
	m := s / float64(len(ests))
	eps := core.TheoremOneEpsilon(t, trueDensity, toleranceDelta, toleranceC1)
	if math.Abs(m-trueDensity) > eps*trueDensity {
		return fmt.Errorf("density: mean estimate %v outside %v ± %v (Theorem 1, t=%d)", m, trueDensity, eps*trueDensity, t)
	}
	return nil
}

// checkIdentical requires the replay's collision counts to give
// bit-identical estimates c/t to the Run's output.
func checkIdentical(counts []int64, t int, ests []float64) error {
	if len(counts) != len(ests) {
		return fmt.Errorf("identity: replay has %d agents, run output %d", len(counts), len(ests))
	}
	for i, c := range counts {
		want := float64(c) / float64(t)
		if math.Float64bits(want) != math.Float64bits(ests[i]) {
			return fmt.Errorf("identity: agent %d replay estimate %v, run output %v", i, want, ests[i])
		}
	}
	return nil
}

// checkNetsize requires a finite size estimate within
// netsizeTolerance of the true node count.
func checkNetsize(size float64, nodes int64) error {
	if math.IsNaN(size) || math.IsInf(size, 0) {
		return fmt.Errorf("netsize: size estimate %v is not finite", size)
	}
	if rel := math.Abs(size-float64(nodes)) / float64(nodes); rel > netsizeTolerance {
		return fmt.Errorf("netsize: size estimate %v is %.3f away from %d (tolerance %v)", size, rel, nodes, netsizeTolerance)
	}
	return nil
}

// checkResultJSON decodes a result with results.ReadJSON and checks it
// against its request: a density result has one estimate row per
// agent and passes checkDensity; a netsize result passes checkNetsize.
func checkResultJSON(b []byte, req request) error {
	res, err := results.ReadJSON(bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("result json: %w", err)
	}
	return checkResult(res, req)
}

// checkResult checks a decoded or in-memory result against its request.
func checkResult(res *results.Result, req request) error {
	switch req.Spec.Kind {
	case "netsize":
		size, ok := res.Metric("size")
		if !ok {
			return fmt.Errorf("result: netsize result has no size metric")
		}
		return checkNetsize(size, req.Spec.Graph.Nodes)
	case "density":
		if len(res.Series) != 1 || res.Series[0].Name != "estimates" {
			return fmt.Errorf("result: want one estimates series, got %d series", len(res.Series))
		}
		rows := res.Series[0].Rows
		if len(rows) != req.Spec.Agents {
			return fmt.Errorf("result: %d estimate rows, want one per agent (%d)", len(rows), req.Spec.Agents)
		}
		ests := make([]float64, len(rows))
		for i, row := range rows {
			if len(row) != 2 {
				return fmt.Errorf("result: row %d has %d cells, want 2", i, len(row))
			}
			v, ok := row[1].Number()
			if !ok {
				return fmt.Errorf("result: row %d estimate is not a number", i)
			}
			ests[i] = v
		}
		d, ok := res.Metric("true_density")
		if !ok {
			return fmt.Errorf("result: density result has no true_density metric")
		}
		return checkDensity(ests, d, req.Spec.Rounds)
	}
	return fmt.Errorf("result: unknown kind %q", req.Spec.Kind)
}

// checkDuplicate requires a cached duplicate's result bytes to equal
// its original's.
func checkDuplicate(orig, dup []byte) error {
	if !bytes.Equal(orig, dup) {
		return fmt.Errorf("dedup: cached duplicate's result (%d bytes) differs from its original's (%d bytes)", len(dup), len(orig))
	}
	return nil
}

// tally counts attempted and failed operations and keeps the first
// few failure messages.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

const maxErrs = 20

// op records one attempted operation, failed when err is non-nil.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
