package antdensity_test

// Benchmarks for the v2 Run/Manager layer: per-run overhead of the
// Spec->Run path against the direct internal estimator, and
// concurrent-manager throughput (N parallel small runs vs the same
// runs through a single-worker manager). On a 1-CPU host the
// concurrent and sequential numbers coincide by construction; on
// multi-core hardware the parallel variant scales with the worker
// pool. BENCH_PR5.json records both on the dev container.

import (
	"context"
	"runtime"
	"testing"

	"antdensity"
)

// benchSpec is one small density run (~41 agents x 400 rounds).
func benchSpec(seed uint64) *antdensity.Spec {
	return antdensity.DensitySpec(
		antdensity.WithTorus2D(20),
		antdensity.WithAgents(41),
		antdensity.WithSeed(seed),
		antdensity.WithRounds(400),
	)
}

// BenchmarkRunDensity measures one Spec->Run->Output cycle, including
// world construction and per-round snapshot publication.
func BenchmarkRunDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchSpec(uint64(i)).Start(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Output(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchManager pushes `runs` small runs through a manager with the
// given worker bound and waits for all of them.
func benchManager(b *testing.B, workers, runs int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		m := antdensity.NewManager(workers)
		mrs := make([]*antdensity.ManagedRun, 0, runs)
		for j := 0; j < runs; j++ {
			mr, err := m.Submit(benchSpec(uint64(i*runs + j)))
			if err != nil {
				b.Fatal(err)
			}
			mrs = append(mrs, mr)
		}
		for _, mr := range mrs {
			if err := mr.Run.Wait(); err != nil {
				b.Fatal(err)
			}
		}
		m.Close()
	}
	b.ReportMetric(float64(runs), "runs/op")
}

// BenchmarkManagerSequential is the sequential baseline: the same
// batch through a single worker slot.
func BenchmarkManagerSequential(b *testing.B) {
	benchManager(b, 1, 2*runtime.GOMAXPROCS(0))
}

// BenchmarkManagerParallel runs the batch at GOMAXPROCS concurrency.
func BenchmarkManagerParallel(b *testing.B) {
	benchManager(b, 0, 2*runtime.GOMAXPROCS(0))
}
