package retrieval

import (
	"testing"
	"testing/quick"

	"imflow/internal/cost"
	"imflow/internal/xrand"
)

// problemFromSeed derives a random problem from quick-check raw material,
// spanning extreme parameter regimes: service times from 1 microsecond to
// seconds, zero and huge delays/loads, replica counts 1-4, single-disk
// systems, and bucket counts up to 80.
func problemFromSeed(seed uint64, extreme bool) *Problem {
	rng := xrand.New(seed)
	nd := 1 + rng.Intn(14)
	p := &Problem{Disks: make([]DiskParams, nd)}
	for j := range p.Disks {
		var service cost.Micros
		if extreme {
			// Anywhere from 1us to ~10s.
			service = cost.Micros(1 + rng.Intn(10_000_000))
		} else {
			service = cost.Micros(100 + rng.Intn(20_000))
		}
		p.Disks[j] = DiskParams{
			Service: service,
			Delay:   cost.Micros(rng.Intn(3) * rng.Intn(2_000_000)),
			Load:    cost.Micros(rng.Intn(3) * rng.Intn(2_000_000)),
		}
		if extreme && rng.Intn(8) == 0 {
			// Near-boundary regime: parameters a few bits below cost.Max,
			// chosen so every Finish(k) a solver can compute stays on the
			// time axis (delay+load <= Max/4 and k*service <= 96*Max/1024),
			// but any non-saturating intermediate arithmetic would wrap.
			p.Disks[j] = DiskParams{
				Service: 1 + cost.Micros(rng.Intn(int(cost.Max/1024))),
				Delay:   cost.Micros(rng.Intn(int(cost.Max / 8))),
				Load:    cost.Micros(rng.Intn(int(cost.Max / 8))),
			}
		}
	}
	q := 1 + rng.Intn(80)
	p.Replicas = make([][]int, q)
	for i := range p.Replicas {
		c := 1 + rng.Intn(4)
		if c > nd {
			c = nd
		}
		p.Replicas[i] = rng.Sample(nd, c)
	}
	return p
}

// TestPropertyAllSolversMatchOracle is the repository's central invariant,
// quick-checked across extreme parameter regimes: every optimal solver
// returns a valid schedule with exactly the oracle's response time.
func TestPropertyAllSolversMatchOracle(t *testing.T) {
	oracle := NewOracle()
	solvers := []Solver{
		NewFFIncremental(),
		NewPRIncremental(),
		NewPRBinary(),
		NewPRBinaryBisect(),
		NewPRBinaryBlackBox(),
		newPRBinaryDinic(),
	}
	check := func(seed uint64) bool {
		p := problemFromSeed(seed, true)
		want, err := oracle.Solve(p)
		if err != nil {
			t.Logf("seed %d: oracle: %v", seed, err)
			return false
		}
		for _, s := range solvers {
			got, err := s.Solve(p)
			if err != nil {
				t.Logf("seed %d: %s: %v", seed, s.Name(), err)
				return false
			}
			if err := p.ValidateSchedule(got.Schedule); err != nil {
				t.Logf("seed %d: %s: %v", seed, s.Name(), err)
				return false
			}
			if got.Schedule.ResponseTime != want.Schedule.ResponseTime {
				t.Logf("seed %d: %s got %v, oracle %v",
					seed, s.Name(), got.Schedule.ResponseTime, want.Schedule.ResponseTime)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyParallelMatchesSequential quick-checks the parallel solver
// separately (it is slower per instance).
func TestPropertyParallelMatchesSequential(t *testing.T) {
	seq := NewPRBinary()
	par := NewPRBinaryParallel(3)
	check := func(seed uint64) bool {
		p := problemFromSeed(seed, false)
		a, err := seq.Solve(p)
		if err != nil {
			t.Logf("seed %d: sequential: %v", seed, err)
			return false
		}
		b, err := par.Solve(p)
		if err != nil {
			t.Logf("seed %d: parallel: %v", seed, err)
			return false
		}
		if err := p.ValidateSchedule(b.Schedule); err != nil {
			t.Logf("seed %d: parallel schedule: %v", seed, err)
			return false
		}
		return a.Schedule.ResponseTime == b.Schedule.ResponseTime
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyGreedyNeverBeatsOptimal: the heuristic is an upper bound.
func TestPropertyGreedyNeverBeatsOptimal(t *testing.T) {
	opt := NewPRBinary()
	greedy := NewGreedy()
	check := func(seed uint64) bool {
		p := problemFromSeed(seed, true)
		a, err := opt.Solve(p)
		if err != nil {
			return false
		}
		b, err := greedy.Solve(p)
		if err != nil {
			return false
		}
		if err := p.ValidateSchedule(b.Schedule); err != nil {
			return false
		}
		return b.Schedule.ResponseTime >= a.Schedule.ResponseTime
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyResponseMonotoneInLoad: raising one disk's initial load can
// never improve the optimal response time (scheduling is monotone in X_j).
func TestPropertyResponseMonotoneInLoad(t *testing.T) {
	solver := NewPRBinary()
	check := func(seed uint64, extraRaw uint16) bool {
		p := problemFromSeed(seed, false)
		a, err := solver.Solve(p)
		if err != nil {
			return false
		}
		rng := xrand.New(seed ^ 0xabc)
		j := rng.Intn(len(p.Disks))
		p2 := &Problem{Disks: append([]DiskParams(nil), p.Disks...), Replicas: p.Replicas}
		p2.Disks[j].Load += cost.Micros(extraRaw)
		b, err := solver.Solve(p2)
		if err != nil {
			return false
		}
		return b.Schedule.ResponseTime >= a.Schedule.ResponseTime
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMoreReplicasNeverHurt: adding a replica of a bucket can only
// lower (or keep) the optimal response time.
func TestPropertyMoreReplicasNeverHurt(t *testing.T) {
	solver := NewPRBinary()
	check := func(seed uint64) bool {
		p := problemFromSeed(seed, false)
		a, err := solver.Solve(p)
		if err != nil {
			return false
		}
		rng := xrand.New(seed ^ 0xdef)
		i := rng.Intn(len(p.Replicas))
		// Find a disk not already holding bucket i.
		held := map[int]bool{}
		for _, d := range p.Replicas[i] {
			held[d] = true
		}
		extra := -1
		for d := range p.Disks {
			if !held[d] {
				extra = d
				break
			}
		}
		if extra < 0 {
			return true // bucket already everywhere
		}
		p2 := &Problem{Disks: p.Disks, Replicas: append([][]int(nil), p.Replicas...)}
		p2.Replicas[i] = append(append([]int(nil), p.Replicas[i]...), extra)
		b, err := solver.Solve(p2)
		if err != nil {
			return false
		}
		return b.Schedule.ResponseTime <= a.Schedule.ResponseTime
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyResponseLowerBound: the optimum can never beat the
// theoretical bound max(min single-block completion, best parallel split).
func TestPropertyResponseLowerBound(t *testing.T) {
	solver := NewPRBinary()
	check := func(seed uint64) bool {
		p := problemFromSeed(seed, true)
		res, err := solver.Solve(p)
		if err != nil {
			return false
		}
		// Lower bound 1: the fastest disk still needs one block.
		best := cost.Max
		for _, d := range p.Disks {
			if f := d.Finish(1); f < best {
				best = f
			}
		}
		return res.Schedule.ResponseTime >= best
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertySolveDoesNotMutateProblem: solvers must treat the problem as
// read-only.
func TestPropertySolveDoesNotMutateProblem(t *testing.T) {
	solvers := []Solver{NewFFIncremental(), NewPRBinary(), NewPRBinaryBlackBox(), NewOracle(), NewGreedy()}
	p := problemFromSeed(7, false)
	disksBefore := append([]DiskParams(nil), p.Disks...)
	replicasBefore := make([][]int, len(p.Replicas))
	for i, r := range p.Replicas {
		replicasBefore[i] = append([]int(nil), r...)
	}
	for _, s := range solvers {
		if _, err := s.Solve(p); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
	for j := range disksBefore {
		if p.Disks[j] != disksBefore[j] {
			t.Fatal("disks mutated")
		}
	}
	for i := range replicasBefore {
		for k := range replicasBefore[i] {
			if p.Replicas[i][k] != replicasBefore[i][k] {
				t.Fatal("replicas mutated")
			}
		}
	}
}

// TestDeterministicSolve: the same problem always yields the same schedule
// from the sequential solvers (full determinism, not just equal response
// times).
func TestDeterministicSolve(t *testing.T) {
	for _, mk := range []func() Solver{
		func() Solver { return NewFFIncremental() },
		func() Solver { return NewPRBinary() },
	} {
		p := problemFromSeed(99, false)
		a, err := mk().Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mk().Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Schedule.Assignment {
			if a.Schedule.Assignment[i] != b.Schedule.Assignment[i] {
				t.Fatalf("%s: assignment differs between runs", mk().Name())
			}
		}
	}
}
