package retrieval

import (
	"errors"
	"testing"
)

// FuzzSolverConsensus derives a problem from the fuzzed seed material and
// requires every optimal solver to agree with the oracle — healthy, under
// a fuzzed disk-failure mask (degraded solves with partial retrieval), and
// across the in-place MarkFailed failover path. The quick-check property
// tests cover random seeds; the fuzzer additionally mutates toward
// interesting shapes (failed-disk subsets, all-copies-failed buckets,
// whole-system outages). Run with `go test -fuzz=FuzzSolverConsensus`.
func FuzzSolverConsensus(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint64(0))
	f.Add(uint64(42), uint8(1), uint64(1))
	f.Add(uint64(7777), uint8(4), uint64(0b1010))
	// Even extremeRaw selects the extreme regime, which includes the
	// near-cost.Max parameter band; these seeds steer the fuzzer there.
	f.Add(uint64(0x9e3779b97f4a7c15), uint8(0), uint64(0))
	f.Add(uint64(0xdeadbeefcafe), uint8(6), uint64(0x3fff)) // whole-system outage
	f.Fuzz(func(t *testing.T, seed uint64, extremeRaw uint8, maskBits uint64) {
		p := problemFromSeed(seed, extremeRaw%2 == 0)
		oracle := NewOracle()
		want, err := oracle.Solve(p)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		solvers := []FailoverSolver{NewFFIncremental(), NewPRBinary(), NewPRBinaryBisect(), NewPRBinaryBlackBox()}
		for _, s := range solvers {
			got, err := s.Solve(p)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if err := p.ValidateSchedule(got.Schedule); err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if got.Schedule.ResponseTime != want.Schedule.ResponseTime {
				t.Fatalf("%s: %v, oracle %v", s.Name(), got.Schedule.ResponseTime, want.Schedule.ResponseTime)
			}
		}

		// Degraded consensus under the fuzzed failure mask: bit d of
		// maskBits fails disk d (mod 64).
		mask := NewDiskMask(len(p.Disks))
		for d := range p.Disks {
			if maskBits>>(uint(d)%64)&1 == 1 {
				mask.MarkFailed(d)
			}
		}
		wantDead := deadBuckets(p, mask)
		mres, merr := oracle.SolveMasked(p, mask)
		if !checkDegraded(t, "oracle masked", p, mres, merr, wantDead) {
			t.FailNow()
		}
		for _, s := range solvers {
			res := &Result{}
			if !checkDegraded(t, s.Name()+" masked", p, res, s.SolveMaskedInto(p, mask, res), wantDead) {
				t.FailNow()
			}
			if res.Schedule.ResponseTime != mres.Schedule.ResponseTime {
				t.Fatalf("%s masked: %v, oracle %v", s.Name(), res.Schedule.ResponseTime, mres.Schedule.ResponseTime)
			}
			// The conserved failover must land on the same degraded
			// optimum: re-solve healthy, then fail the masked disks one at
			// a time in place.
			if err := s.SolveInto(p, res); err != nil {
				t.Fatalf("%s re-solve: %v", s.Name(), err)
			}
			var ferr error
			for d := range p.Disks {
				if mask.Failed(d) {
					ferr = s.MarkFailed(d, res)
					if ferr != nil && !errors.Is(ferr, ErrInfeasible) {
						t.Fatalf("%s MarkFailed(%d): %v", s.Name(), d, ferr)
					}
				}
			}
			if !checkDegraded(t, s.Name()+" failover", p, res, ferr, wantDead) {
				t.FailNow()
			}
			if res.Schedule.ResponseTime != mres.Schedule.ResponseTime {
				t.Fatalf("%s failover: %v, oracle masked %v", s.Name(), res.Schedule.ResponseTime, mres.Schedule.ResponseTime)
			}
		}
	})
}
