package retrieval

import (
	"testing"

	"imflow/internal/cost"
	"imflow/internal/xrand"
)

// randomProblem builds a random generalized instance: disks drawn from a
// catalog-like parameter pool, each bucket replicated on `copies` random
// distinct disks.
func randomProblem(rng *xrand.Source, maxDisks, maxBuckets, copies int) *Problem {
	nd := 2 + rng.Intn(maxDisks-1)
	if copies > nd {
		copies = nd
	}
	services := []float64{13.2, 8.3, 6.1, 0.5, 0.2}
	p := &Problem{Disks: make([]DiskParams, nd)}
	for j := range p.Disks {
		p.Disks[j] = DiskParams{
			Service: cost.FromMillis(services[rng.Intn(len(services))]),
			Delay:   cost.FromMillis(float64(2 * rng.Intn(6))),
			Load:    cost.FromMillis(float64(2 * rng.Intn(6))),
		}
	}
	q := 1 + rng.Intn(maxBuckets)
	p.Replicas = make([][]int, q)
	for i := range p.Replicas {
		p.Replicas[i] = rng.Sample(nd, copies)
	}
	return p
}

// homogeneousProblem builds a basic-retrieval instance.
func homogeneousProblem(rng *xrand.Source, maxDisks, maxBuckets, copies int) *Problem {
	p := randomProblem(rng, maxDisks, maxBuckets, copies)
	uniform := DiskParams{Service: cost.FromMillis(6.1)}
	for j := range p.Disks {
		p.Disks[j] = uniform
	}
	return p
}

func TestAllSolversAgreeWithOracle(t *testing.T) {
	rng := xrand.New(2025)
	oracle := NewOracle()
	solvers := []Solver{
		NewFFIncremental(),
		NewPRIncremental(),
		NewPRBinary(),
		NewPRBinaryBlackBox(),
		NewPRBinaryParallel(2),
	}
	for trial := 0; trial < 120; trial++ {
		p := randomProblem(rng, 12, 60, 2)
		want, err := oracle.Solve(p)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		if err := p.ValidateSchedule(want.Schedule); err != nil {
			t.Fatalf("trial %d: oracle schedule invalid: %v", trial, err)
		}
		for _, s := range solvers {
			got, err := s.Solve(p)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, s.Name(), err)
			}
			if err := p.ValidateSchedule(got.Schedule); err != nil {
				t.Fatalf("trial %d: %s schedule invalid: %v", trial, s.Name(), err)
			}
			if got.Schedule.ResponseTime != want.Schedule.ResponseTime {
				t.Fatalf("trial %d: %s response %v, oracle %v", trial,
					s.Name(), got.Schedule.ResponseTime, want.Schedule.ResponseTime)
			}
		}
	}
}

func TestSolversOnThreeCopies(t *testing.T) {
	rng := xrand.New(31)
	oracle := NewOracle()
	solvers := []Solver{NewFFIncremental(), NewPRIncremental(), NewPRBinary(), NewPRBinaryBlackBox()}
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng, 10, 40, 3)
		want, err := oracle.Solve(p)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		for _, s := range solvers {
			got, err := s.Solve(p)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if got.Schedule.ResponseTime != want.Schedule.ResponseTime {
				t.Fatalf("trial %d: %s response %v, oracle %v", trial,
					s.Name(), got.Schedule.ResponseTime, want.Schedule.ResponseTime)
			}
		}
	}
}

func TestFFBasicOnHomogeneousInstances(t *testing.T) {
	rng := xrand.New(55)
	oracle := NewOracle()
	basic := NewFFBasic()
	for trial := 0; trial < 60; trial++ {
		p := homogeneousProblem(rng, 10, 50, 2)
		want, err := oracle.Solve(p)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		got, err := basic.Solve(p)
		if err != nil {
			t.Fatalf("ff-basic: %v", err)
		}
		if err := p.ValidateSchedule(got.Schedule); err != nil {
			t.Fatalf("ff-basic schedule invalid: %v", err)
		}
		if got.Schedule.ResponseTime != want.Schedule.ResponseTime {
			t.Fatalf("trial %d: ff-basic response %v, oracle %v",
				trial, got.Schedule.ResponseTime, want.Schedule.ResponseTime)
		}
	}
}

func TestFFBasicRejectsHeterogeneous(t *testing.T) {
	p := &Problem{
		Disks: []DiskParams{
			{Service: cost.FromMillis(6.1)},
			{Service: cost.FromMillis(0.2)},
		},
		Replicas: [][]int{{0, 1}},
	}
	if _, err := NewFFBasic().Solve(p); err == nil {
		t.Fatal("ff-basic accepted a heterogeneous instance")
	}
}

func TestSingleBucketSingleDisk(t *testing.T) {
	p := &Problem{
		Disks:    []DiskParams{{Service: cost.FromMillis(8.3), Delay: cost.FromMillis(2), Load: cost.FromMillis(1)}},
		Replicas: [][]int{{0}},
	}
	for _, s := range []Solver{NewFFIncremental(), NewPRIncremental(), NewPRBinary(), NewPRBinaryBlackBox(), NewPRBinaryParallel(2), NewOracle()} {
		got, err := s.Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		want := cost.FromMillis(2 + 1 + 8.3)
		if got.Schedule.ResponseTime != want {
			t.Fatalf("%s: response %v, want %v", s.Name(), got.Schedule.ResponseTime, want)
		}
		if got.Schedule.Assignment[0] != 0 {
			t.Fatalf("%s: assignment %v", s.Name(), got.Schedule.Assignment)
		}
	}
}

// TestAllBucketsOnOneDisk is the paper's worst case: every bucket stored
// only on a single disk, so the schedule is forced and the response time
// is D + X + |Q|*C.
func TestAllBucketsOnOneDisk(t *testing.T) {
	const q = 25
	p := &Problem{
		Disks: []DiskParams{
			{Service: cost.FromMillis(6.1)},
			{Service: cost.FromMillis(0.2)}, // faster but holds nothing
		},
		Replicas: make([][]int, q),
	}
	for i := range p.Replicas {
		p.Replicas[i] = []int{0}
	}
	want := cost.FromMillis(6.1 * q)
	for _, s := range []Solver{NewFFIncremental(), NewPRIncremental(), NewPRBinary(), NewPRBinaryBlackBox(), NewOracle()} {
		got, err := s.Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if got.Schedule.ResponseTime != want {
			t.Fatalf("%s: response %v, want %v", s.Name(), got.Schedule.ResponseTime, want)
		}
	}
}

func TestProblemValidate(t *testing.T) {
	cases := []struct {
		name string
		p    *Problem
	}{
		{"empty query", &Problem{Disks: []DiskParams{{Service: 1}}}},
		{"no replicas", &Problem{Disks: []DiskParams{{Service: 1}}, Replicas: [][]int{{}}}},
		{"bad disk id", &Problem{Disks: []DiskParams{{Service: 1}}, Replicas: [][]int{{3}}}},
		{"duplicate replica", &Problem{Disks: []DiskParams{{Service: 1}}, Replicas: [][]int{{0, 0}}}},
		{"zero service", &Problem{Disks: []DiskParams{{Service: 0}}, Replicas: [][]int{{0}}}},
		{"negative delay", &Problem{Disks: []DiskParams{{Service: 1, Delay: -1}}, Replicas: [][]int{{0}}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted malformed problem", c.name)
		}
	}
}

func TestValidateScheduleCatchesLies(t *testing.T) {
	p := &Problem{
		Disks:    []DiskParams{{Service: cost.FromMillis(1)}, {Service: cost.FromMillis(1)}},
		Replicas: [][]int{{0, 1}, {0, 1}},
	}
	res, err := NewPRBinary().Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	good := res.Schedule
	if err := p.ValidateSchedule(good); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bad := *good
	bad.ResponseTime += 1
	if err := p.ValidateSchedule(&bad); err == nil {
		t.Error("inflated response time accepted")
	}
	bad2 := *good
	bad2.Assignment = append([]int(nil), good.Assignment...)
	bad2.Assignment[0] = 1 - bad2.Assignment[0] // still a replica, but counts now lie
	if err := p.ValidateSchedule(&bad2); err == nil {
		t.Error("count mismatch accepted")
	}
}

// TestStatsReportWork checks each search's counters: Algorithm 6's
// bisection counts binary steps, and the min-cut search counts runs and
// jumps but never a binary step.
func TestStatsReportWork(t *testing.T) {
	rng := xrand.New(9)
	p := randomProblem(rng, 8, 40, 2)
	res, err := NewPRBinaryBisect().Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxflowRuns == 0 || res.Stats.BinarySteps == 0 {
		t.Errorf("bisect: stats look empty: %+v", res.Stats)
	}
	if res.Stats.Engine == "" {
		t.Error("bisect: engine name missing")
	}
	res, err = NewPRBinary().Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxflowRuns == 0 || res.Stats.BinarySteps != 0 {
		t.Errorf("min-cut search: want runs and no binary steps: %+v", res.Stats)
	}
	if res.Stats.Increments != res.Stats.MaxflowRuns-1 {
		t.Errorf("min-cut search: %d jumps for %d runs, want one fewer", res.Stats.Increments, res.Stats.MaxflowRuns)
	}
}

// TestIntegratedDoesLessWorkThanBlackBox checks the paper's core claim at
// the operation-count level: on instances with many increment steps, the
// integrated solver performs fewer elementary push operations than the
// black-box solver, because it never recomputes conserved flow. Both run
// Algorithm 6's bisection, so only conservation differs.
func TestIntegratedDoesLessWorkThanBlackBox(t *testing.T) {
	rng := xrand.New(123)
	var intPushes, bbPushes int64
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng, 10, 120, 2)
		ri, err := NewPRBinaryBisect().Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := NewPRBinaryBlackBox().Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		intPushes += ri.Stats.Flow.Pushes
		bbPushes += rb.Stats.Flow.Pushes
	}
	if intPushes >= bbPushes {
		t.Errorf("integrated pushes %d >= black box pushes %d; flow conservation not paying off",
			intPushes, bbPushes)
	}
}
