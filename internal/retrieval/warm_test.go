package retrieval

import (
	"testing"
	"testing/quick"

	"imflow/internal/cost"
	"imflow/internal/maxflow"
	"imflow/internal/xrand"
)

// perturbLoads rewrites every disk's initial load X_j in place, leaving the
// problem's structure (replicas, service, delay) untouched — the exact
// cross-query shape the warm-start path exists for.
func perturbLoads(p *Problem, rng *xrand.Source) {
	for j := range p.Disks {
		p.Disks[j].Load = cost.Micros(rng.Intn(1_500_000))
	}
}

// TestWarmStartEngages pins down when Stats.Warm is reported: never on the
// first solve, on every structure-preserving repeat (loads free to change),
// and never right after the structure changes.
func TestWarmStartEngages(t *testing.T) {
	for _, mk := range reusableSolvers {
		s := mk()
		rng := xrand.New(17)
		p1 := problemFromSeed(41, false)
		p2 := problemFromSeed(42, false)
		res := &Result{}
		if err := s.SolveInto(p1, res); err != nil {
			t.Fatalf("%s: cold p1: %v", s.Name(), err)
		}
		if res.Stats.Warm {
			t.Errorf("%s: first solve reported warm", s.Name())
		}
		perturbLoads(p1, rng)
		if err := s.SolveInto(p1, res); err != nil {
			t.Fatalf("%s: warm p1: %v", s.Name(), err)
		}
		if !res.Stats.Warm {
			t.Errorf("%s: load-only repeat not warm", s.Name())
		}
		if err := s.SolveInto(p2, res); err != nil {
			t.Fatalf("%s: cold p2: %v", s.Name(), err)
		}
		if res.Stats.Warm {
			t.Errorf("%s: structure change reported warm", s.Name())
		}
		if err := s.SolveInto(p2, res); err != nil {
			t.Fatalf("%s: warm p2: %v", s.Name(), err)
		}
		if !res.Stats.Warm {
			t.Errorf("%s: identical repeat not warm", s.Name())
		}
	}
}

// TestWarmStartEngagesFFBasic is the homogeneous-disk analogue for the
// Algorithm 1 solver.
func TestWarmStartEngagesFFBasic(t *testing.T) {
	p := &Problem{Disks: make([]DiskParams, 4)}
	for j := range p.Disks {
		p.Disks[j] = DiskParams{Service: 1000}
	}
	rng := xrand.New(9)
	p.Replicas = make([][]int, 12)
	for i := range p.Replicas {
		p.Replicas[i] = rng.Sample(len(p.Disks), 1+rng.Intn(2))
	}
	s := NewFFBasic()
	res := &Result{}
	if err := s.SolveInto(p, res); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Warm {
		t.Error("first solve reported warm")
	}
	if err := s.SolveInto(p, res); err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Warm {
		t.Error("repeat solve not warm")
	}
	fresh, err := NewFFBasic().Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.ResponseTime != fresh.Schedule.ResponseTime {
		t.Errorf("warm response %v, fresh %v", res.Schedule.ResponseTime, fresh.Schedule.ResponseTime)
	}
}

// TestPropertyWarmSolveBitIdentical is the tentpole's correctness gate: a
// reused solver fed an interleaved stream of warm repeats (perturbed
// loads), masked solves, and structure flips must agree with a fresh
// solver of the same kind on every solve — the same response time and the
// same work counters (the binary solver's bracket trajectory is a function
// of the capacities alone, so warm conservation may not change it). Under
// the imflow_audit tag every intermediate flow additionally carries a
// max-flow certificate.
func TestPropertyWarmSolveBitIdentical(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed ^ 0x3a3a)
		p := problemFromSeed(seed, seed%5 == 0)
		alt := problemFromSeed(seed+1000, false)
		mask := NewDiskMask(len(p.Disks))
		for _, d := range rng.Sample(len(p.Disks), rng.Intn(len(p.Disks)/2+1)) {
			mask.MarkFailed(d)
		}
		// Fixed interleaving: every adjacent repeat is a guaranteed warm
		// start, every switch a guaranteed cold rebuild. 0 = structure
		// flip, 1 = masked solve of the same structure, 2 = healthy solve.
		schedule := []int{2, 2, 1, 1, 0, 0, 2, 2, 1}
		for _, fs := range failoverSolvers {
			s := fs.mk()
			res := &Result{}
			warmSeen := false
			for round, mode := range schedule {
				target, m := p, (*DiskMask)(nil)
				switch mode {
				case 0:
					target = alt
				case 1:
					m = mask
				}
				perturbLoads(target, rng)
				err := s.SolveMaskedInto(target, m, res)
				fres := &Result{}
				ferr := fs.mk().SolveMaskedInto(target, m, fres)
				if (err == nil) != (ferr == nil) {
					t.Logf("seed %d round %d: %s reused err %v, fresh err %v", seed, round, fs.name, err, ferr)
					return false
				}
				warmSeen = warmSeen || res.Stats.Warm
				if res.Schedule.ResponseTime != fres.Schedule.ResponseTime {
					t.Logf("seed %d round %d: %s (warm=%v) response %v, fresh %v",
						seed, round, fs.name, res.Stats.Warm, res.Schedule.ResponseTime, fres.Schedule.ResponseTime)
					return false
				}
				if res.Stats.MaxflowRuns != fres.Stats.MaxflowRuns ||
					res.Stats.Increments != fres.Stats.Increments ||
					res.Stats.BinarySteps != fres.Stats.BinarySteps {
					t.Logf("seed %d round %d: %s (warm=%v) counters (%d,%d,%d), fresh (%d,%d,%d)",
						seed, round, fs.name, res.Stats.Warm,
						res.Stats.MaxflowRuns, res.Stats.Increments, res.Stats.BinarySteps,
						fres.Stats.MaxflowRuns, fres.Stats.Increments, fres.Stats.BinarySteps)
					return false
				}
			}
			if !warmSeen {
				t.Logf("seed %d: %s never warmed across 8 rounds", seed, fs.name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestWarmAcrossFailoverTransitions covers the mask half of the signature:
// after MarkFailed repairs a solve in place, a masked re-solve with the
// matching mask warms (the built slot mask agrees), while dropping back to
// the healthy problem is a structure change and must rebuild cold. Both
// directions are cross-checked against fresh solves.
func TestWarmAcrossFailoverTransitions(t *testing.T) {
	check := func(seed uint64) bool {
		p := problemFromSeed(seed, false)
		if len(p.Disks) < 2 {
			return true
		}
		rng := xrand.New(seed ^ 0xf01d)
		// The failed disk must participate in the network (appear in some
		// replica list): masking a spectator disk changes nothing, so a
		// warm reuse across that mask change would be correct — and not
		// the transition this test pins down.
		d := p.Replicas[rng.Intn(len(p.Replicas))][0]
		mask := NewDiskMask(len(p.Disks))
		mask.MarkFailed(d)
		wantDead := deadBuckets(p, mask)
		for _, fs := range failoverSolvers {
			s := fs.mk()
			res := &Result{}
			if err := s.SolveInto(p, res); err != nil {
				t.Logf("seed %d: %s baseline: %v", seed, fs.name, err)
				return false
			}
			if err := s.MarkFailed(d, res); !checkDegraded(t, fs.name+"/failover", p, res, err, wantDead) {
				return false
			}
			// Masked re-solve with fresh loads: the failed-over network is
			// reusable because the signature includes the slot mask.
			perturbLoads(p, rng)
			err := s.SolveMaskedInto(p, mask, res)
			if !checkDegraded(t, fs.name+"/warm-masked", p, res, err, wantDead) {
				return false
			}
			if !res.Stats.Warm {
				t.Logf("seed %d: %s masked re-solve after MarkFailed not warm", seed, fs.name)
				return false
			}
			fres := &Result{}
			ferr := fs.mk().SolveMaskedInto(p, mask, fres)
			if !checkDegraded(t, fs.name+"/fresh-masked", p, fres, ferr, wantDead) {
				return false
			}
			if res.Schedule.ResponseTime != fres.Schedule.ResponseTime {
				t.Logf("seed %d: %s warm masked response %v, fresh %v",
					seed, fs.name, res.Schedule.ResponseTime, fres.Schedule.ResponseTime)
				return false
			}
			// Back to the healthy problem: the mask no longer matches the
			// built slots, so the solve must rebuild cold — and still agree
			// with a fresh healthy solve.
			if err := s.SolveInto(p, res); err != nil {
				t.Logf("seed %d: %s healthy re-solve: %v", seed, fs.name, err)
				return false
			}
			if res.Stats.Warm {
				t.Logf("seed %d: %s mask drop incorrectly warm", seed, fs.name)
				return false
			}
			fresh, err := fs.mk().Solve(p)
			if err != nil {
				t.Logf("seed %d: %s fresh healthy: %v", seed, fs.name, err)
				return false
			}
			if res.Schedule.ResponseTime != fresh.Schedule.ResponseTime {
				t.Logf("seed %d: %s healthy response %v, fresh %v",
					seed, fs.name, res.Schedule.ResponseTime, fresh.Schedule.ResponseTime)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestWarmSteadyStateAllocs extends the zero-allocation guarantee to the
// realistic warm workload: repeated solves whose loads change every call.
// Every measured solve must take the warm path and allocate nothing.
func TestWarmSteadyStateAllocs(t *testing.T) {
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
		{"pr-binary-bisect", func() ReusableSolver { return NewPRBinaryBisect() }},
	}
	p := problemFromSeed(5, false)
	for _, tc := range cases {
		s := tc.mk()
		res := &Result{}
		for i := 0; i < 2; i++ {
			if err := s.SolveInto(p, res); err != nil {
				t.Fatalf("%s: warm-up: %v", tc.name, err)
			}
		}
		iter := 0
		avg := testing.AllocsPerRun(20, func() {
			iter++
			for j := range p.Disks {
				p.Disks[j].Load = cost.Micros((iter*7919 + j*131) % 1_000_000)
			}
			if err := s.SolveInto(p, res); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !res.Stats.Warm {
				t.Fatalf("%s: perturbed-load solve not warm", tc.name)
			}
		})
		if avg != 0 {
			t.Errorf("%s: %v allocs per warm SolveInto, want 0", tc.name, avg)
		}
	}
}
