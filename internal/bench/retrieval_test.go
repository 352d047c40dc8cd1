package bench

import (
	"runtime"
	"testing"

	"imflow/internal/maxflow"
)

// TestRunRetrievalSmoke runs the suite on a tiny cell and gates the
// tentpole invariant: the steady-state integrated solve loop performs zero
// heap allocations for every sequential engine. It also checks that the
// failover sweep measured every failure.
func TestRunRetrievalSmoke(t *testing.T) {
	// Pin one P for the run, as testing.AllocsPerRun does. With two, the
	// runtime's own work on the other P can allocate inside a measured
	// window and count against the solver.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	report, err := RunRetrieval(RetrievalOptions{Ns: []int{6}, Queries: 3, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := len(retrievalSolvers(2))
	if len(report.Records) != want {
		t.Fatalf("got %d records, want %d", len(report.Records), want)
	}
	for _, r := range report.Records {
		if r.Engine == "" {
			t.Errorf("%s: empty engine name", r.Solver)
		}
		if r.NsPerOp <= 0 {
			t.Errorf("%s: non-positive ns/op %v", r.Solver, r.NsPerOp)
		}
		if r.MaxflowRuns <= 0 {
			t.Errorf("%s: no max-flow runs recorded", r.Solver)
		}
		// measureWarm errors out unless every perturbed re-solve actually
		// warm-started and matched a cold cross-check, so a positive
		// timing here certifies the warm path ran.
		if r.WarmNsPerOp <= 0 || r.WarmSpeedup <= 0 {
			t.Errorf("%s: warm path not measured: %v ns/op, %vx", r.Solver, r.WarmNsPerOp, r.WarmSpeedup)
		}
	}
	// measureFailover errors out unless every repair matched its fresh
	// masked solve, so positive timings certify the failover ran.
	if len(report.Failover) != failoverDepth {
		t.Fatalf("got %d failover records, want %d", len(report.Failover), failoverDepth)
	}
	for i, r := range report.Failover {
		if r.FailedDisks != i+1 || r.Queries != 3 {
			t.Errorf("failover record %d: %d failed disks over %d queries", i, r.FailedDisks, r.Queries)
		}
		if r.RepairNsPerOp <= 0 || r.FreshNsPerOp <= 0 || r.RepairFreshRatio <= 0 {
			t.Errorf("failover record %d not measured: %+v", i, r)
		}
	}
	if maxflow.AuditEnabled {
		return // audit hooks allocate; the alloc gate only holds in normal builds
	}
	for _, r := range report.Records {
		// The parallel engine allocates per run (goroutine machinery);
		// every sequential solver must be allocation-free in steady state.
		if !sequentialSolver(r.Solver) {
			continue
		}
		if r.AllocsPerOp != 0 {
			t.Errorf("%s: %v allocs/op in steady state, want 0", r.Solver, r.AllocsPerOp)
		}
		if r.WarmAllocsPerOp != 0 {
			t.Errorf("%s: %v allocs/op in warm steady state, want 0", r.Solver, r.WarmAllocsPerOp)
		}
	}
}
