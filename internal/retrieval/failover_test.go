package retrieval

import (
	"errors"
	"testing"
	"testing/quick"

	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
	"imflow/internal/xrand"
)

// flowgraphForMask builds an independent feasibility network for the
// masked problem, deliberately sharing no code with network.rebuildMasked:
// source 0, buckets 1..q, disks q+1..q+n (every global disk), sink at the
// end. Source arcs keep capacity 1 for every bucket — dead buckets are
// *not* pre-dropped — so the max-flow deficit |Q| - F is the min-cut count
// of unroutable buckets.
func flowgraphForMask(p *Problem, mask *DiskMask) *flowgraph.Graph {
	q := len(p.Replicas)
	n := len(p.Disks)
	g := flowgraph.New(q + n + 2)
	sink := q + n + 1
	for i, reps := range p.Replicas {
		g.AddEdge(0, 1+i, 1)
		for _, d := range reps {
			g.AddEdge(1+i, q+1+d, 1)
		}
	}
	for d := 0; d < n; d++ {
		c := int64(q)
		if mask.Failed(d) {
			c = 0
		}
		g.AddEdge(q+1+d, sink, c)
	}
	g.Freeze()
	return g
}

// newPRBinaryDinic drives Algorithm 6 with Dinic: a deterministic engine
// without Resume, so the solver rosters keep covering the conserving
// DrainExcess + Run branch of PRBinary.run.
func newPRBinaryDinic() *PRBinary {
	return NewPRBinaryWithEngine("pr-binary-dinic",
		func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewDinic(g) })
}

// failoverSolvers enumerates every FailoverSolver constructor.
var failoverSolvers = []struct {
	name string
	mk   func() FailoverSolver
}{
	{"ff-incremental", func() FailoverSolver { return NewFFIncremental() }},
	{"pr-incremental", func() FailoverSolver { return NewPRIncremental() }},
	{"pr-binary", func() FailoverSolver { return NewPRBinary() }},
	{"pr-binary-bisect", func() FailoverSolver { return NewPRBinaryBisect() }},
	{"pr-binary-blackbox", func() FailoverSolver { return NewPRBinaryBlackBox() }},
	{"pr-binary-dinic", func() FailoverSolver { return newPRBinaryDinic() }},
	{"pr-binary-parallel", func() FailoverSolver { return NewPRBinaryParallel(2) }},
}

// deadBuckets independently computes the buckets whose every replica is on
// a failed disk.
func deadBuckets(p *Problem, mask *DiskMask) []int {
	var dead []int
	for i, reps := range p.Replicas {
		alive := false
		for _, d := range reps {
			if !mask.Failed(d) {
				alive = true
				break
			}
		}
		if !alive {
			dead = append(dead, i)
		}
	}
	return dead
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkDegraded validates a degraded solve's (res, err) pair against the
// expected dead set: a partial schedule over exactly the live buckets and
// an *InfeasibleError naming exactly the dead ones (nil when none).
func checkDegraded(t *testing.T, label string, p *Problem, res *Result, err error, wantDead []int) bool {
	t.Helper()
	if len(wantDead) == 0 {
		if err != nil {
			t.Logf("%s: unexpected error: %v", label, err)
			return false
		}
	} else {
		var inf *InfeasibleError
		if !errors.As(err, &inf) {
			t.Logf("%s: error %v, want *InfeasibleError", label, err)
			return false
		}
		if !errors.Is(err, ErrInfeasible) {
			t.Logf("%s: error does not match ErrInfeasible", label)
			return false
		}
		if !sameInts(inf.Buckets, wantDead) {
			t.Logf("%s: dead buckets %v, want %v", label, inf.Buckets, wantDead)
			return false
		}
	}
	if verr := p.ValidatePartialSchedule(res.Schedule, wantDead); verr != nil {
		t.Logf("%s: %v", label, verr)
		return false
	}
	return true
}

func TestDiskMaskBasics(t *testing.T) {
	m := NewDiskMask(4)
	if m.FailedCount() != 0 || m.NumDisks() != 4 {
		t.Fatalf("fresh mask: count %d disks %d", m.FailedCount(), m.NumDisks())
	}
	if !m.MarkFailed(2) || m.MarkFailed(2) {
		t.Fatal("MarkFailed change-reporting broken")
	}
	if !m.Failed(2) || m.Failed(1) || m.FailedCount() != 1 {
		t.Fatal("Failed/FailedCount broken")
	}
	m.MarkFailed(0)
	if got := m.FailedDisks(nil); !sameInts(got, []int{0, 2}) {
		t.Fatalf("FailedDisks %v", got)
	}
	var cp DiskMask
	cp.CopyFrom(m)
	if !m.Recover(2) || m.Recover(2) {
		t.Fatal("Recover change-reporting broken")
	}
	if m.Failed(2) || m.FailedCount() != 1 {
		t.Fatal("Recover did not clear")
	}
	if !cp.Failed(2) || cp.FailedCount() != 2 {
		t.Fatal("CopyFrom not independent")
	}
	m.Reset(4)
	if m.FailedCount() != 0 || m.Failed(0) {
		t.Fatal("Reset broken")
	}

	// Nil and out-of-range are healthy, never a panic.
	var nilMask *DiskMask
	if nilMask.Failed(3) || nilMask.FailedCount() != 0 || nilMask.NumDisks() != 0 {
		t.Fatal("nil mask not all-healthy")
	}
	if m.Failed(-1) || m.Failed(99) {
		t.Fatal("out-of-range disks must read healthy")
	}
}

func TestInfeasibleErrorWrapping(t *testing.T) {
	var err error = &InfeasibleError{Buckets: []int{3, 7}}
	if !errors.Is(err, ErrInfeasible) {
		t.Fatal("errors.Is(ErrInfeasible) false")
	}
	var inf *InfeasibleError
	if !errors.As(err, &inf) || !sameInts(inf.Buckets, []int{3, 7}) {
		t.Fatal("errors.As lost the witness")
	}
	// The generic solver infeasibility exits wrap the same sentinel.
	p := problemFromSeed(3, false)
	if _, err := NewPRBinary().Solve(p); err != nil {
		t.Fatalf("baseline solve: %v", err)
	}
}

// TestPropertySolveMaskedMatchesOracle is the degraded-mode analogue of
// the central consensus property: under a random disk mask, every
// failover solver and the oracle agree on the degraded response time, drop
// exactly the same (independently recomputed) buckets, and return valid
// partial schedules.
func TestPropertySolveMaskedMatchesOracle(t *testing.T) {
	oracle := NewOracle()
	check := func(seed uint64) bool {
		p := problemFromSeed(seed, seed%3 == 0)
		rng := xrand.New(seed ^ 0xfa11)
		mask := NewDiskMask(len(p.Disks))
		// Fail up to half the disks (possibly zero).
		for _, d := range rng.Sample(len(p.Disks), rng.Intn(len(p.Disks)/2+1)) {
			mask.MarkFailed(d)
		}
		wantDead := deadBuckets(p, mask)
		ores, oerr := oracle.SolveMasked(p, mask)
		if !checkDegraded(t, "oracle", p, ores, oerr, wantDead) {
			return false
		}
		for _, fs := range failoverSolvers {
			s := fs.mk()
			res := &Result{}
			err := s.SolveMaskedInto(p, mask, res)
			if !checkDegraded(t, fs.name, p, res, err, wantDead) {
				return false
			}
			if res.Schedule.ResponseTime != ores.Schedule.ResponseTime {
				t.Logf("seed %d: %s degraded response %v, oracle %v",
					seed, fs.name, res.Schedule.ResponseTime, ores.Schedule.ResponseTime)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMarkFailedMatchesFreshMaskedSolve is the failover headline
// invariant: solving, then failing disks one at a time with MarkFailed
// (searching again on the solver's own network), lands on exactly the
// response time of a fresh solve of the masked problem — for every
// engine, including failures that strand buckets.
func TestPropertyMarkFailedMatchesFreshMaskedSolve(t *testing.T) {
	check := func(seed uint64) bool {
		p := problemFromSeed(seed, seed%4 == 0)
		rng := xrand.New(seed ^ 0xdeadd15c)
		nFail := 1 + rng.Intn(2) // 1 or 2 failed disks
		if nFail > len(p.Disks) {
			nFail = len(p.Disks)
		}
		fails := rng.Sample(len(p.Disks), nFail)
		mask := NewDiskMask(len(p.Disks))
		for _, fs := range failoverSolvers {
			s := fs.mk()
			res := &Result{}
			if err := s.SolveInto(p, res); err != nil {
				t.Logf("seed %d: %s baseline: %v", seed, fs.name, err)
				return false
			}
			mask.Reset(len(p.Disks))
			for _, d := range fails {
				mask.MarkFailed(d)
				err := s.MarkFailed(d, res)
				wantDead := deadBuckets(p, mask)
				if !checkDegraded(t, fs.name+"/failover", p, res, err, wantDead) {
					return false
				}
				fres := &Result{}
				ferr := fs.mk().SolveMaskedInto(p, mask, fres)
				if !checkDegraded(t, fs.name+"/fresh", p, fres, ferr, wantDead) {
					return false
				}
				if res.Schedule.ResponseTime != fres.Schedule.ResponseTime {
					t.Logf("seed %d: %s failover after failing %d: response %v, fresh masked solve %v",
						seed, fs.name, d, res.Schedule.ResponseTime, fres.Schedule.ResponseTime)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPartialRetrievalMinCutDeficit property-tests the partial-retrieval
// contract against the min-cut: on an independent feasibility network
// (source arcs cap 1 for *every* bucket, failed disks' sink arcs at zero,
// live disks unconstrained), max-flow = min-cut says the number of
// unroutable buckets is |Q| minus the max flow. The solver's
// InfeasibleError must name exactly that many buckets, each verifiably
// stranded, and retrieve everything else.
func TestPartialRetrievalMinCutDeficit(t *testing.T) {
	check := func(seed uint64) bool {
		p := problemFromSeed(seed, false)
		rng := xrand.New(seed ^ 0x5eed)
		mask := NewDiskMask(len(p.Disks))
		// Fail aggressively so stranded buckets are common.
		for _, d := range rng.Sample(len(p.Disks), rng.Intn(len(p.Disks))) {
			mask.MarkFailed(d)
		}
		// Independent witness network, deliberately not via rebuildMasked.
		g := flowgraphForMask(p, mask)
		flow := maxflow.NewEdmondsKarp(g).Run(0, g.N-1)
		deficit := int64(len(p.Replicas)) - flow

		s := NewPRBinary()
		res := &Result{}
		err := s.SolveMaskedInto(p, mask, res)
		var inf *InfeasibleError
		if deficit == 0 {
			if err != nil {
				t.Logf("seed %d: deficit 0 but error %v", seed, err)
				return false
			}
			return true
		}
		if !errors.As(err, &inf) {
			t.Logf("seed %d: deficit %d but error %v", seed, deficit, err)
			return false
		}
		if int64(len(inf.Buckets)) != deficit {
			t.Logf("seed %d: named %d dead buckets, min-cut deficit %d", seed, len(inf.Buckets), deficit)
			return false
		}
		for _, i := range inf.Buckets {
			for _, d := range p.Replicas[i] {
				if !mask.Failed(d) {
					t.Logf("seed %d: bucket %d named dead but replica %d is live", seed, i, d)
					return false
				}
			}
			if res.Schedule.Assignment[i] != -1 {
				t.Logf("seed %d: dead bucket %d has assignment %d", seed, i, res.Schedule.Assignment[i])
				return false
			}
		}
		return checkDegraded(t, "pr-binary", p, res, err, inf.Buckets)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMarkFailedEdgeCases covers the no-op and error paths of MarkFailed.
func TestMarkFailedEdgeCases(t *testing.T) {
	p := &Problem{
		Disks: []DiskParams{
			{Service: 1000}, {Service: 2000}, {Service: 1500}, {Service: 900},
		},
		Replicas: [][]int{{0, 1}, {1, 2}, {0, 2}},
	}
	for _, fs := range failoverSolvers {
		s := fs.mk()
		res := &Result{}
		if err := s.MarkFailed(0, res); err == nil {
			t.Fatalf("%s: MarkFailed before solve accepted", fs.name)
		}
		if err := s.SolveInto(p, res); err != nil {
			t.Fatalf("%s: solve: %v", fs.name, err)
		}
		base := res.Schedule.ResponseTime
		if err := s.MarkFailed(99, res); err == nil {
			t.Fatalf("%s: MarkFailed(99) accepted", fs.name)
		}
		// Disk 3 holds no replica of this query: failing it is a no-op.
		if err := s.MarkFailed(3, res); err != nil {
			t.Fatalf("%s: MarkFailed(non-participant): %v", fs.name, err)
		}
		if res.Schedule.ResponseTime != base {
			t.Fatalf("%s: non-participant failure changed response %v -> %v",
				fs.name, base, res.Schedule.ResponseTime)
		}
		if err := s.MarkFailed(1, res); err != nil {
			t.Fatalf("%s: MarkFailed(1): %v", fs.name, err)
		}
		after := res.Schedule.ResponseTime
		if err := p.ValidatePartialSchedule(res.Schedule, nil); err != nil {
			t.Fatalf("%s: post-failover schedule: %v", fs.name, err)
		}
		for i, d := range res.Schedule.Assignment {
			if d == 1 {
				t.Fatalf("%s: bucket %d still assigned to failed disk", fs.name, i)
			}
		}
		// Failing the same disk again is a no-op.
		if err := s.MarkFailed(1, res); err != nil {
			t.Fatalf("%s: repeated MarkFailed: %v", fs.name, err)
		}
		if res.Schedule.ResponseTime != after {
			t.Fatalf("%s: repeated failure changed response", fs.name)
		}
	}
}

// TestMarkFailedAllReplicasDown drives the explicit all-copies-down case:
// bucket 0 lives only on disk 0; failing disk 0 must degrade to a partial
// schedule naming bucket 0 and still retrieve buckets 1 and 2.
func TestMarkFailedAllReplicasDown(t *testing.T) {
	p := &Problem{
		Disks:    []DiskParams{{Service: 1000}, {Service: 800}, {Service: 1200}},
		Replicas: [][]int{{0}, {0, 1}, {1, 2}},
	}
	for _, fs := range failoverSolvers {
		s := fs.mk()
		res := &Result{}
		if err := s.SolveInto(p, res); err != nil {
			t.Fatalf("%s: solve: %v", fs.name, err)
		}
		err := s.MarkFailed(0, res)
		var inf *InfeasibleError
		if !errors.As(err, &inf) || !sameInts(inf.Buckets, []int{0}) {
			t.Fatalf("%s: MarkFailed(0) err %v, want InfeasibleError{[0]}", fs.name, err)
		}
		if err := p.ValidatePartialSchedule(res.Schedule, []int{0}); err != nil {
			t.Fatalf("%s: partial schedule: %v", fs.name, err)
		}
		// Everything failed: the solve degrades to the empty retrieval.
		if err := s.MarkFailed(1, res); err == nil {
			t.Fatalf("%s: expected infeasibility after failing disk 1", fs.name)
		}
		err = s.MarkFailed(2, res)
		if !errors.As(err, &inf) || !sameInts(inf.Buckets, []int{0, 1, 2}) {
			t.Fatalf("%s: all-disks-down err %v", fs.name, err)
		}
		if res.Schedule.ResponseTime != 0 {
			t.Fatalf("%s: empty retrieval response %v, want 0", fs.name, res.Schedule.ResponseTime)
		}
	}
}

// TestRecoveryRequiresFreshSolve documents the recovery contract: a
// recovered disk re-enters through a fresh masked solve (MarkFailed only
// ever adds failures to the network a solver holds), which must land back
// on the original optimum.
func TestRecoveryRequiresFreshSolve(t *testing.T) {
	p := problemFromSeed(1234, false)
	mask := NewDiskMask(len(p.Disks))
	for _, fs := range failoverSolvers {
		s := fs.mk()
		res := &Result{}
		if err := s.SolveInto(p, res); err != nil {
			t.Fatalf("%s: %v", fs.name, err)
		}
		healthy := res.Schedule.ResponseTime
		mask.Reset(len(p.Disks))
		mask.MarkFailed(0)
		if err := s.MarkFailed(0, res); err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: MarkFailed: %v", fs.name, err)
		}
		mask.Recover(0)
		if err := s.SolveMaskedInto(p, mask, res); err != nil {
			t.Fatalf("%s: recovery solve: %v", fs.name, err)
		}
		if res.Schedule.ResponseTime != healthy {
			t.Fatalf("%s: recovered response %v, healthy %v", fs.name, res.Schedule.ResponseTime, healthy)
		}
	}
}

// TestMarkFailedSteadyStateAllocs gates the failover path the same way
// SolveInto is gated: once buffers have converged, a solve followed by a
// MarkFailed performs no heap allocations, and neither does a degraded
// solve followed by a MarkFailed that strands a bucket.
func TestMarkFailedSteadyStateAllocs(t *testing.T) {
	if maxflow.AuditEnabled {
		t.Skip("imflow_audit builds allocate in the audit hooks")
	}
	// Every bucket keeps a live replica after disk 0 fails.
	p := &Problem{
		Disks:    []DiskParams{{Service: 1000}, {Service: 1100}, {Service: 900}},
		Replicas: [][]int{{0, 1}, {0, 2}, {1, 2}, {0, 1}, {2, 0}},
	}
	for _, fs := range failoverSolvers {
		if fs.name == "pr-binary-parallel" {
			continue // the parallel engine allocates per run by design
		}
		s := fs.mk()
		res := &Result{}
		for i := 0; i < 2; i++ {
			if err := s.SolveInto(p, res); err != nil {
				t.Fatalf("%s: warm-up: %v", fs.name, err)
			}
			if err := s.MarkFailed(0, res); err != nil {
				t.Fatalf("%s: warm-up failover: %v", fs.name, err)
			}
		}
		avg := testing.AllocsPerRun(10, func() {
			if err := s.SolveInto(p, res); err != nil {
				t.Fatalf("%s: %v", fs.name, err)
			}
			if err := s.MarkFailed(0, res); err != nil {
				t.Fatalf("%s: failover: %v", fs.name, err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: %v allocs per steady-state solve+failover, want 0", fs.name, avg)
		}
	}

	// Degraded: disk 1 is down, so bucket 1 is dropped from the start, and
	// failing disk 0 strands bucket 0 too. Both calls report their dead
	// buckets through an *InfeasibleError.
	degraded := &Problem{
		Disks:    []DiskParams{{Service: 1000}, {Service: 1100}, {Service: 900}, {Service: 1300}},
		Replicas: [][]int{{0, 1}, {1}, {0, 2}, {2, 3}, {3, 0}},
	}
	mask := NewDiskMask(len(degraded.Disks))
	mask.MarkFailed(1)
	for _, fs := range failoverSolvers {
		if fs.name == "pr-binary-parallel" {
			continue // the parallel engine allocates per run by design
		}
		s := fs.mk()
		res := &Result{}
		for i := 0; i < 2; i++ {
			if err := s.SolveMaskedInto(degraded, mask, res); !checkDegraded(t, fs.name+"/degraded", degraded, res, err, []int{1}) {
				t.Fatalf("%s: warm-up degraded solve", fs.name)
			}
			if err := s.MarkFailed(0, res); !checkDegraded(t, fs.name+"/stranding", degraded, res, err, []int{0, 1}) {
				t.Fatalf("%s: warm-up stranding failover", fs.name)
			}
		}
		avg := testing.AllocsPerRun(10, func() {
			if err := s.SolveMaskedInto(degraded, mask, res); !errors.Is(err, ErrInfeasible) {
				t.Fatalf("%s: degraded solve: %v", fs.name, err)
			}
			if err := s.MarkFailed(0, res); !errors.Is(err, ErrInfeasible) {
				t.Fatalf("%s: stranding failover: %v", fs.name, err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: %v allocs per steady-state degraded solve+stranding failover, want 0", fs.name, avg)
		}
	}
}
