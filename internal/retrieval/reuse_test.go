package retrieval

import (
	"testing"

	"imflow/internal/maxflow"
	"imflow/internal/xrand"
)

// reusableSolvers enumerates every ReusableSolver constructor for the
// generalized problem.
var reusableSolvers = []func() ReusableSolver{
	func() ReusableSolver { return NewFFIncremental() },
	func() ReusableSolver { return NewPRIncremental() },
	func() ReusableSolver { return NewPRBinary() },
	func() ReusableSolver { return NewPRBinaryBlackBox() },
	func() ReusableSolver { return NewPRBinaryHighestLabel() },
	func() ReusableSolver { return NewPRBinaryParallel(2) },
}

// TestSolveIntoInterleavedReuse interleaves SolveInto calls across two
// different problems on one reused solver, in randomized order, and
// cross-checks every answer against a fresh solver of the same kind (the
// audit hooks and the engine-level certificate tests cover the flow
// certificates on the reused path).
func TestSolveIntoInterleavedReuse(t *testing.T) {
	problems := []*Problem{
		problemFromSeed(11, false),
		problemFromSeed(222, true),
	}
	for _, mk := range reusableSolvers {
		reused := mk()
		res := &Result{}
		order := xrand.New(5)
		for round := 0; round < 10; round++ {
			p := problems[order.Intn(len(problems))]
			if err := reused.SolveInto(p, res); err != nil {
				t.Fatalf("round %d: %s reused: %v", round, reused.Name(), err)
			}
			if err := p.ValidateSchedule(res.Schedule); err != nil {
				t.Fatalf("round %d: %s reused: %v", round, reused.Name(), err)
			}
			fresh, err := mk().Solve(p)
			if err != nil {
				t.Fatalf("round %d: %s fresh: %v", round, reused.Name(), err)
			}
			if res.Schedule.ResponseTime != fresh.Schedule.ResponseTime {
				t.Fatalf("round %d: %s reused response %v, fresh %v",
					round, reused.Name(), res.Schedule.ResponseTime, fresh.Schedule.ResponseTime)
			}
		}
	}
}

// TestSolveIntoReuseFFBasic is the homogeneous-disk analogue for the
// Algorithm 1 solver, which rejects heterogeneous instances.
func TestSolveIntoReuseFFBasic(t *testing.T) {
	mkHomogeneous := func(seed uint64, q int) *Problem {
		rng := xrand.New(seed)
		nd := 3
		p := &Problem{Disks: make([]DiskParams, nd)}
		for j := range p.Disks {
			p.Disks[j] = DiskParams{Service: 1000}
		}
		p.Replicas = make([][]int, q)
		for i := range p.Replicas {
			p.Replicas[i] = rng.Sample(nd, 1+rng.Intn(2))
		}
		return p
	}
	problems := []*Problem{mkHomogeneous(3, 9), mkHomogeneous(4, 21)}
	reused := NewFFBasic()
	res := &Result{}
	order := xrand.New(6)
	for round := 0; round < 8; round++ {
		p := problems[order.Intn(len(problems))]
		if err := reused.SolveInto(p, res); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := p.ValidateSchedule(res.Schedule); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		fresh, err := NewFFBasic().Solve(p)
		if err != nil {
			t.Fatalf("round %d: fresh: %v", round, err)
		}
		if res.Schedule.ResponseTime != fresh.Schedule.ResponseTime {
			t.Fatalf("round %d: reused %v, fresh %v", round, res.Schedule.ResponseTime, fresh.Schedule.ResponseTime)
		}
	}
}

// TestSolveIntoSteadyStateAllocs is the zero-reallocation guarantee of the
// tentpole: after a warm-up solve, SolveInto on the same problem shape must
// perform no heap allocations for the integrated FF and PR solvers.
func TestSolveIntoSteadyStateAllocs(t *testing.T) {
	if maxflow.AuditEnabled {
		t.Skip("imflow_audit builds allocate in the audit hooks")
	}
	cases := []struct {
		name string
		mk   func() ReusableSolver
	}{
		{"ff-incremental", func() ReusableSolver { return NewFFIncremental() }},
		{"pr-incremental", func() ReusableSolver { return NewPRIncremental() }},
		{"pr-binary", func() ReusableSolver { return NewPRBinary() }},
	}
	p := problemFromSeed(5, false)
	for _, tc := range cases {
		s := tc.mk()
		res := &Result{}
		// Two warm-up solves: the first sizes every buffer, the second
		// verifies sizing converged before the measured runs.
		for i := 0; i < 2; i++ {
			if err := s.SolveInto(p, res); err != nil {
				t.Fatalf("%s: warm-up: %v", tc.name, err)
			}
		}
		avg := testing.AllocsPerRun(20, func() {
			if err := s.SolveInto(p, res); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: %v allocs per steady-state SolveInto, want 0", tc.name, avg)
		}
	}
}
