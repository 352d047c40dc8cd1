package serve

import (
	"testing"
	"time"

	"imflow/internal/maxflow"
	"imflow/internal/retrieval"
)

// chunk slices the stream into admission batches of at most size queries,
// precomputed so the measured serving loop performs no slicing allocations
// of its own.
func chunk(qs []Query, size int) [][]Query {
	var out [][]Query
	for len(qs) > size {
		out = append(out, qs[:size])
		qs = qs[size:]
	}
	return append(out, qs)
}

// TestServeSteadyStateAllocs is the serving-layer half of the PR 2
// zero-reallocation guarantee: a worker with a pinned sequential solver,
// serving warmed admission batches, performs no heap allocations per
// query — in the online concurrent path and in the deterministic path,
// healthy and degraded (disks failed so that queries drop buckets), and
// in the online path's mid-solve repair (a scheduled disk fails between
// a solve and its write-back). This is what justifies pinning solvers to
// workers instead of drawing them from a sync.Pool.
func TestServeSteadyStateAllocs(t *testing.T) {
	if maxflow.AuditEnabled {
		t.Skip("imflow_audit builds allocate in the audit hooks")
	}
	sys, stream := testStream(t, 48, 17)
	qs := toServeQueries(stream)
	batches := chunk(qs, 8)

	// The orthogonal allocation puts one bucket on each pair of a site-0
	// and a site-1 disk, so with these disks down the 9 buckets (of 36)
	// whose copies sit on {0,1,2} x {6,7,8} have no live replica.
	down := []int{0, 1, 2, 6, 7, 8}
	for _, mode := range []struct {
		name   string
		opt    Options
		failed []int
		repair bool // fail one scheduled disk mid-solve per pass
	}{
		{"concurrent", Options{Workers: 1, Batch: 8}, nil, false},
		{"deterministic", Options{Deterministic: true, Batch: 8}, nil, false},
		{"concurrent-degraded", Options{Workers: 1, Batch: 8}, down, false},
		{"deterministic-degraded", Options{Deterministic: true, Batch: 8}, down, false},
		{"concurrent-repair", Options{Workers: 1, Batch: 8}, nil, true},
	} {
		s, err := New(sys, len(qs), mode.opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range mode.failed {
			if err := s.FailDisk(d); err != nil {
				t.Fatal(err)
			}
		}
		// Drive the shard worker directly (no goroutines, no channels):
		// AllocsPerRun needs the serving step itself on the test goroutine.
		s.start = time.Now()
		w := s.workers[0]
		// In repair mode the hook fails the busiest disk of the first
		// schedule of each pass, which the worker repairs with MarkFailed
		// before its write-back; the disk recovers when the pass ends.
		hit := -1
		if mode.repair {
			s.faultOn.Store(true) // the online fault path, as after any FailDisk
			s.afterSolve = func(w *worker, _ *Query) {
				if hit >= 0 {
					return
				}
				if hit = busiestDisk(w.res.Schedule); hit >= 0 {
					if err := s.FailDisk(hit); err != nil {
						t.Error(err)
					}
				}
			}
		}
		serveAll := func() {
			s.clock = 0 // deterministic clock restarts with each replayed stream
			hit = -1
			for _, b := range batches {
				if err := w.serveBatch(b); err != nil {
					t.Fatalf("%s: %v", mode.name, err)
				}
			}
			if hit >= 0 {
				if err := s.RecoverDisk(hit); err != nil {
					t.Error(err)
				}
			}
		}
		// Two warm passes size every pinned buffer (problem, result,
		// solver network, engine) to the stream's peak shape.
		serveAll()
		serveAll()
		if mode.failed != nil && s.nDropped.Load() == 0 {
			t.Fatalf("%s: no query dropped a bucket", mode.name)
		}
		failovers := s.nFailovers.Load()
		if avg := testing.AllocsPerRun(10, serveAll); avg != 0 {
			t.Errorf("%s: %v allocs per warmed serving pass, want 0", mode.name, avg)
		}
		if mode.repair && s.nFailovers.Load() == failovers {
			t.Errorf("%s: the measured passes repaired nothing", mode.name)
		}
	}
}

// TestPinnedSolverIsPerWorker documents the no-sync.Pool design: every
// worker must get its own solver instance from the factory.
func TestPinnedSolverIsPerWorker(t *testing.T) {
	sys, stream := testStream(t, 4, 5)
	made := 0
	opt := Options{
		Workers: 3,
		NewSolver: func() retrieval.ReusableSolver {
			made++
			return retrieval.NewPRBinary()
		},
	}
	s, err := New(sys, len(stream), opt)
	if err != nil {
		t.Fatal(err)
	}
	if made != 3 {
		t.Fatalf("%d solvers for 3 workers", made)
	}
	seen := map[retrieval.ReusableSolver]bool{}
	for _, w := range s.workers {
		if seen[w.solver] {
			t.Fatal("two workers share one solver")
		}
		seen[w.solver] = true
	}
}
