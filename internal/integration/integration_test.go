// Package integration ties the subsystems together end to end: experiment
// cells through solvers, the declustering analyzer against the max-flow
// machinery, the simulator against the analytic model, and the wire format
// against the solvers.
package integration

import (
	"bytes"
	"testing"

	"imflow/internal/cost"
	"imflow/internal/decluster"
	"imflow/internal/encoding"
	"imflow/internal/experiment"
	"imflow/internal/grid"
	"imflow/internal/query"
	"imflow/internal/retrieval"
	"imflow/internal/sim"
	"imflow/internal/storage"
	"imflow/internal/xrand"
)

// TestQueryCostAgreesWithMaxflowRetrieval cross-validates the declustering
// analyzer's matching-based QueryCost against the max-flow retrieval
// solver: on a homogeneous unit system with no delays or loads, the
// optimal response time divided by the service time is exactly the
// max-per-disk bucket count.
func TestQueryCostAgreesWithMaxflowRetrieval(t *testing.T) {
	const n = 6
	g := grid.New(n)
	rng := xrand.New(17)
	solver := retrieval.NewPRBinary()
	for trial := 0; trial < 30; trial++ {
		alloc := decluster.RDA(g, n, 2, rng.Fork())
		size := 1 + rng.Intn(20)
		buckets := rng.Sample(g.Buckets(), size)

		cost1 := alloc.QueryCost(buckets)

		// The analyzer's model is a single pool of N disks (both copies
		// share the namespace), so build the retrieval problem the same
		// way rather than with the two-site mapping.
		p := &retrieval.Problem{Disks: make([]retrieval.DiskParams, n)}
		for j := range p.Disks {
			p.Disks[j] = retrieval.DiskParams{Service: storage.Cheetah.Access}
		}
		for _, b := range buckets {
			reps := alloc.Replicas(b, nil)
			uniq := reps[:0]
			seen := map[int]bool{}
			for _, d := range reps {
				if !seen[d] {
					seen[d] = true
					uniq = append(uniq, d)
				}
			}
			p.Replicas = append(p.Replicas, uniq)
		}
		res, err := solver.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		blocks := int(int64(res.Schedule.ResponseTime) / int64(storage.Cheetah.Access))
		if blocks != cost1 {
			t.Fatalf("trial %d: analyzer cost %d, max-flow cost %d", trial, cost1, blocks)
		}
	}
}

// TestCellSolverConsensusAcrossTheMatrix runs a compact slice of the full
// evaluation matrix and checks every solver agrees on every query.
func TestCellSolverConsensusAcrossTheMatrix(t *testing.T) {
	solvers := []retrieval.Solver{
		retrieval.NewFFIncremental(),
		retrieval.NewPRIncremental(),
		retrieval.NewPRBinary(),
		retrieval.NewPRBinaryBisect(),
		retrieval.NewPRBinaryBlackBox(),
		newPRBinaryDinic(),
		retrieval.NewPRBinaryParallel(2),
	}
	for expNum := 1; expNum <= 5; expNum++ {
		for _, typ := range []query.Type{query.Range, query.Arbitrary} {
			cfg := experiment.Config{
				ExpNum: expNum, Alloc: experiment.Orthogonal,
				Type: typ, Load: query.Load3, N: 8, Queries: 4,
				Seed: uint64(expNum),
			}
			inst, err := cfg.Build()
			if err != nil {
				t.Fatal(err)
			}
			for qi, p := range inst.Problems {
				var want cost.Micros = -1
				for _, s := range solvers {
					res, err := s.Solve(p)
					if err != nil {
						t.Fatalf("%s %s query %d: %v", cfg, s.Name(), qi, err)
					}
					if err := p.ValidateSchedule(res.Schedule); err != nil {
						t.Fatalf("%s %s query %d: %v", cfg, s.Name(), qi, err)
					}
					if want < 0 {
						want = res.Schedule.ResponseTime
					} else if res.Schedule.ResponseTime != want {
						t.Fatalf("%s query %d: %s got %v, first solver got %v",
							cfg, qi, s.Name(), res.Schedule.ResponseTime, want)
					}
				}
			}
		}
	}
}

// TestSimulatedStreamKeepsOptimality replays a stream where every
// scheduling decision is re-validated against the oracle with the live
// loads — the generalized problem's X_j path exercised end to end.
func TestSimulatedStreamKeepsOptimality(t *testing.T) {
	const n = 6
	rng := xrand.New(5)
	exp, err := storage.ExperimentByNum(4)
	if err != nil {
		t.Fatal(err)
	}
	sys := exp.Build(n, rng)
	g := grid.New(n)
	alloc := decluster.Orthogonal(g)
	gen := query.NewGenerator(g, query.Arbitrary, query.Load3)

	oracle := retrieval.NewOracle()
	s := sim.New(sys, sim.SolverScheduler{Solver: retrieval.NewPRBinary()})

	var clock cost.Micros
	for i := 0; i < 25; i++ {
		clock += cost.FromMillis(float64(1 + rng.Intn(5)))
		buckets := gen.Query(rng)
		p := experiment.BuildProblem(sys, alloc, buckets)
		// The simulator will overwrite loads with the live ones; verify by
		// reconstructing the same problem it solves.
		live := s.ProblemAt(p.Replicas, clock)
		wantRes, err := oracle.Solve(live)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Submit(sim.Query{Arrival: clock, Replicas: p.Replicas})
		if err != nil {
			t.Fatal(err)
		}
		if r.ResponseTime != wantRes.Schedule.ResponseTime {
			t.Fatalf("query %d: simulated response %v, oracle-with-live-loads %v",
				i, r.ResponseTime, wantRes.Schedule.ResponseTime)
		}
	}
}

// TestWireFormatThroughSolver round-trips a generated problem through the
// JSON wire format and checks the decoded instance solves identically.
func TestWireFormatThroughSolver(t *testing.T) {
	cfg := experiment.Config{
		ExpNum: 5, Alloc: experiment.RDA, Type: query.Arbitrary,
		Load: query.Load3, N: 6, Queries: 5, Seed: 77,
	}
	inst, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	solver := retrieval.NewPRBinary()
	for i, p := range inst.Problems {
		var buf bytes.Buffer
		if err := encoding.WriteProblem(&buf, p); err != nil {
			t.Fatal(err)
		}
		back, err := encoding.ReadProblem(&buf)
		if err != nil {
			t.Fatal(err)
		}
		a, err := solver.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := solver.Solve(back)
		if err != nil {
			t.Fatal(err)
		}
		if a.Schedule.ResponseTime != b.Schedule.ResponseTime {
			t.Fatalf("query %d: response changed across wire format: %v vs %v",
				i, a.Schedule.ResponseTime, b.Schedule.ResponseTime)
		}
	}
}

// TestPaperRunningExample pins the Figure 4 / Table II instance end to
// end: 14 disks on two sites, query q1, optimal response time.
func TestPaperRunningExample(t *testing.T) {
	disks := make([]retrieval.DiskParams, 14)
	for j := 0; j <= 6; j++ {
		disks[j] = retrieval.DiskParams{
			Service: cost.FromMillis(8.3), Delay: cost.FromMillis(2), Load: cost.FromMillis(1),
		}
	}
	for _, j := range []int{7, 8, 10, 13} {
		disks[j] = retrieval.DiskParams{Service: cost.FromMillis(6.1), Delay: cost.FromMillis(1)}
	}
	for _, j := range []int{9, 11, 12} {
		disks[j] = retrieval.DiskParams{Service: cost.FromMillis(13.2), Delay: cost.FromMillis(1)}
	}
	p := &retrieval.Problem{
		Disks: disks,
		Replicas: [][]int{
			{0, 10}, {3, 13}, {5, 8}, {1, 11}, {3, 9}, {0, 12},
		},
	}
	// One access on a site-1 Raptor disk costs 2+1+8.3 = 11.3 ms; the six
	// buckets cannot all fit on the four fast site-2 Cheetahs (buckets
	// [1,1], [2,0], [2,1] only have slow/Raptor alternatives), so 11.3 ms
	// is optimal.
	want := cost.FromMillis(11.3)
	for _, s := range []retrieval.Solver{
		retrieval.NewFFIncremental(), retrieval.NewPRBinary(), retrieval.NewOracle(),
	} {
		res, err := s.Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Schedule.ResponseTime != want {
			t.Fatalf("%s: response %v, want %v", s.Name(), res.Schedule.ResponseTime, want)
		}
	}
}

// TestThreeSiteRetrieval exercises the >2-site generality of the
// formulation (the paper's Table IV uses two sites, but the generalized
// problem of its reference [12] allows any number): three copies on three
// sites, heterogeneous speeds, all solvers agreeing.
func TestThreeSiteRetrieval(t *testing.T) {
	const n = 5
	g := grid.New(n)
	rng := xrand.New(33)
	sys := &storage.System{Sites: 3, DisksPerSite: n}
	models := []storage.DiskModel{storage.Cheetah, storage.Vertex, storage.Barracuda}
	for site := 0; site < 3; site++ {
		for local := 0; local < n; local++ {
			sys.Disks = append(sys.Disks, storage.Disk{
				ID: site*n + local, Site: site, Model: models[site],
				Service: models[site].Access,
				Delay:   cost.FromMillis(float64(site)),
			})
		}
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	alloc, err := decluster.Periodic(g, 1, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	gen := query.NewGenerator(g, query.Range, query.Load2)
	oracle := retrieval.NewOracle()
	solvers := []retrieval.Solver{
		retrieval.NewFFIncremental(),
		retrieval.NewPRBinary(),
		retrieval.NewPRBinaryParallel(2),
	}
	for trial := 0; trial < 15; trial++ {
		p := experiment.BuildProblem(sys, alloc, gen.Query(rng))
		for i, reps := range p.Replicas {
			if len(reps) != 3 {
				t.Fatalf("bucket %d has %d replicas, want 3", i, len(reps))
			}
		}
		want, err := oracle.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range solvers {
			got, err := s.Solve(p)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if got.Schedule.ResponseTime != want.Schedule.ResponseTime {
				t.Fatalf("trial %d: %s got %v, oracle %v",
					trial, s.Name(), got.Schedule.ResponseTime, want.Schedule.ResponseTime)
			}
		}
	}
}
