package retrieval

import (
	"errors"
	"testing"
	"testing/quick"

	"imflow/internal/cost"
	"imflow/internal/maxflow"
	"imflow/internal/xrand"
)

// backlogProblem is problemFromSeed's ordinary regime with every disk's
// load X_j drawn uniformly from [0, 50 s]: loads spread far wider than
// the optimum, where each jump of the min-cut search tends to open one
// more disk.
func backlogProblem(seed uint64) *Problem {
	p := problemFromSeed(seed, false)
	rng := xrand.New(seed ^ 0xb10c)
	for j := range p.Disks {
		p.Disks[j].Load = cost.Micros(rng.Intn(50_000_001))
	}
	return p
}

// wideBacklogProblem is backlogProblem at the solver bench's scale: 100
// to 300 buckets with two or three replicas over 8 to 31 disks, so that
// jumps make up deficits larger than selectMax.
func wideBacklogProblem(seed uint64) *Problem {
	rng := xrand.New(seed)
	p := &Problem{Disks: make([]DiskParams, 8+rng.Intn(24))}
	for j := range p.Disks {
		p.Disks[j] = DiskParams{
			Service: cost.Micros(100 + rng.Intn(20_000)),
			Delay:   cost.Micros(rng.Intn(2_000)),
			Load:    cost.Micros(rng.Intn(50_000_001)),
		}
	}
	p.Replicas = make([][]int, 100+rng.Intn(201))
	for i := range p.Replicas {
		p.Replicas[i] = rng.Sample(len(p.Disks), 2+rng.Intn(2))
	}
	return p
}

// cutThresholds replays the min-cut search's thresholds on p with a
// from-scratch Edmonds-Karp run at each one, so the sequence owes
// nothing to the flow or heights the solver carries between runs. It
// returns every threshold run, the last one feasible, and the deficit
// each jump made up.
func cutThresholds(t *testing.T, p *Problem) (ths []cost.Micros, deficits []int64) {
	t.Helper()
	net := buildNetwork(p)
	engine := maxflow.NewEdmondsKarp(net.g)
	target := net.target()
	var c cutScratch
	th := c.trivial(net)
	for {
		ths = append(ths, th)
		net.capsForTime(th)
		net.g.ZeroFlows()
		flow := engine.Run(net.s, net.t)
		if flow == target {
			return ths, deficits
		}
		deficits = append(deficits, target-flow)
		next, ok := c.jump(net, th, target-flow)
		if !ok {
			t.Fatalf("jump from %v found no room for %d blocks", th, target-flow)
		}
		th = next
	}
}

// TestCutSearchThresholdsNeverPassOptimum checks the min-cut search's
// invariant: every threshold is a lower bound on the optimum, so they
// rise strictly and the first feasible one is the oracle's optimum. It
// also ties the replay to the solver: NewPRBinary runs once per threshold
// and counts one jump per threshold after t0.
func TestCutSearchThresholdsNeverPassOptimum(t *testing.T) {
	families := []struct {
		name string
		mk   func(seed uint64) *Problem
	}{
		{"seeded", func(seed uint64) *Problem { return problemFromSeed(seed, seed%3 == 0) }},
		{"backlog", backlogProblem},
		{"wide backlog", wideBacklogProblem},
	}
	for _, fam := range families {
		jumps, large := 0, 0
		check := func(seed uint64) bool {
			p := fam.mk(seed)
			want, err := NewOracle().Solve(p)
			if err != nil {
				t.Logf("seed %d: oracle: %v", seed, err)
				return false
			}
			opt := want.Schedule.ResponseTime
			ths, deficits := cutThresholds(t, p)
			for i, th := range ths {
				if th > opt || (i > 0 && th <= ths[i-1]) {
					t.Logf("seed %d: thresholds %v against optimum %v", seed, ths, opt)
					return false
				}
			}
			if last := ths[len(ths)-1]; last != opt {
				t.Logf("seed %d: first feasible threshold %v, optimum %v", seed, last, opt)
				return false
			}
			got, err := NewPRBinary().Solve(p)
			if err != nil {
				t.Logf("seed %d: pr-binary: %v", seed, err)
				return false
			}
			if got.Schedule.ResponseTime != opt || got.Stats.MaxflowRuns != len(ths) || got.Stats.Increments != len(ths)-1 {
				t.Logf("seed %d: pr-binary response %v in %d runs, %d jumps; oracle %v, replay %d thresholds",
					seed, got.Schedule.ResponseTime, got.Stats.MaxflowRuns, got.Stats.Increments, opt, len(ths))
				return false
			}
			jumps += len(ths) - 1
			for _, d := range deficits {
				if d > selectMax {
					large++
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%s: %v", fam.name, err)
		}
		if jumps == 0 {
			t.Errorf("%s: no problem needed a jump; the family does not exercise the search", fam.name)
		}
		if fam.name == "wide backlog" && large == 0 {
			t.Errorf("%s: no jump made up more than %d blocks; the family does not exercise the bisected jump", fam.name, selectMax)
		}
		t.Logf("%s: %d jumps, %d of them over %d blocks", fam.name, jumps, large, selectMax)
	}
}

// TestCutSearchMarkFailedMatchesOracle fails disks one at a time under
// the min-cut search and checks each MarkFailed against the oracle's
// masked solve: the response time and the stranded buckets. The run
// must include failures that strand buckets and lower the optimum, and
// failures that strand nothing.
func TestCutSearchMarkFailedMatchesOracle(t *testing.T) {
	var strandedFell, intact int
	check := func(seed uint64) bool {
		p := problemFromSeed(seed, false)
		if seed%2 == 1 {
			p = backlogProblem(seed)
		}
		rng := xrand.New(seed ^ 0xfa11)
		s := NewPRBinary()
		res := &Result{}
		if err := s.SolveInto(p, res); err != nil {
			t.Logf("seed %d: solve: %v", seed, err)
			return false
		}
		mask := NewDiskMask(len(p.Disks))
		for _, d := range rng.Sample(len(p.Disks), 1+rng.Intn(len(p.Disks))) {
			before := res.Schedule.ResponseTime
			deadBefore := len(deadBuckets(p, mask))
			mask.MarkFailed(d)
			wantDead := deadBuckets(p, mask)
			err := s.MarkFailed(d, res)
			if !checkDegraded(t, "pr-binary/failover", p, res, err, wantDead) {
				return false
			}
			want, werr := NewOracle().SolveMasked(p, mask)
			if werr != nil && !errors.Is(werr, ErrInfeasible) {
				t.Logf("seed %d: oracle: %v", seed, werr)
				return false
			}
			if res.Schedule.ResponseTime != want.Schedule.ResponseTime {
				t.Logf("seed %d: failing disk %d: response %v, oracle %v", seed, d, res.Schedule.ResponseTime, want.Schedule.ResponseTime)
				return false
			}
			switch {
			case len(wantDead) > deadBefore && res.Schedule.ResponseTime < before:
				strandedFell++
			case len(wantDead) == deadBefore:
				intact++
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	if strandedFell == 0 || intact == 0 {
		t.Errorf("failures that stranded buckets and lowered the optimum: %d, that stranded nothing: %d; want both", strandedFell, intact)
	}
}

// TestCutSearchSteadyStateAllocs holds the min-cut search to zero
// allocations after warm-up on a problem whose jumps make up small
// deficits and large ones: SolveInto, a warm SolveInto, a degraded
// SolveMaskedInto and a MarkFailed.
func TestCutSearchSteadyStateAllocs(t *testing.T) {
	if maxflow.AuditEnabled {
		t.Skip("imflow_audit builds allocate in the audit hooks")
	}
	var p *Problem
	for seed := uint64(1); p == nil; seed++ {
		cand := backlogProblem(seed)
		_, deficits := cutThresholds(t, cand)
		var small, large bool
		for _, d := range deficits {
			small = small || d <= selectMax
			large = large || d > selectMax
		}
		if small && large && len(cand.Disks) >= 4 {
			p = cand
		}
	}
	s := NewPRBinary()
	res := &Result{}
	mask := NewDiskMask(len(p.Disks))
	mask.MarkFailed(0)
	saved := append([]DiskParams(nil), p.Disks...)
	iter := 0
	round := func() {
		iter++
		for j := range p.Disks {
			p.Disks[j].Load = cost.SatAdd(saved[j].Load, cost.Micros((iter*7919+j*131)%1_000_000))
		}
		if err := s.SolveInto(p, res); err != nil {
			t.Fatal(err)
		}
		if err := s.SolveInto(p, res); err != nil || !res.Stats.Warm {
			t.Fatalf("repeat solve: warm %v, err %v", res.Stats.Warm, err)
		}
		if err := s.SolveMaskedInto(p, mask, res); err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatal(err)
		}
		if err := s.MarkFailed(1, res); err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Errorf("%v allocs per solve, warm solve, masked solve and failover, want 0", avg)
	}
}

// TestCutSearchSeedIsGreedyAndFeasible checks the min-cut search's seed
// against a replay of its rule on networks with failed disks, at t0's
// capacities: buckets in order, each to the replica disk with the most
// room left, ties to the first, dead buckets and masked disks never.
// The seeded flow must be feasible, and must route exactly the buckets
// the replay routes, through the disks it picks.
func TestCutSearchSeedIsGreedyAndFeasible(t *testing.T) {
	var routed, unrouted, dead int
	check := func(seed uint64) bool {
		p := problemFromSeed(seed, false)
		if seed%2 == 1 {
			p = wideBacklogProblem(seed)
		}
		rng := xrand.New(seed ^ 0x5eed)
		mask := NewDiskMask(len(p.Disks))
		for _, d := range rng.Sample(len(p.Disks), rng.Intn(len(p.Disks)/2+1)) {
			mask.MarkFailed(d)
		}
		net := &network{}
		net.rebuildMasked(p, mask)
		var c cutScratch
		net.capsForTime(c.trivial(net))
		net.seed()
		if _, err := net.g.CheckFlow(net.s, net.t); err != nil {
			t.Logf("seed %d: seeded flow infeasible: %v", seed, err)
			return false
		}
		room := append([]int64(nil), net.caps[:len(net.diskIDs)]...)
		for i, reps := range p.Replicas {
			want := -1
			if !net.deadMark[i] {
				most := int64(0)
				for _, d := range reps {
					if k := int(net.vtxSlot[d]) - 1; room[k] > most && !mask.Failed(d) {
						want, most = k, room[k]
					}
				}
				if want >= 0 {
					room[want]--
				}
			}
			got := -1
			a := net.srcArc[i]
			for r := range reps {
				if b := a + 2 + 2*r; net.g.Flow[b] > 0 {
					got = int(net.g.To[b]) - net.q - 1
				}
			}
			if got != want || net.g.Flow[a] != int64(min(1, want+1)) {
				t.Logf("seed %d: bucket %d (dead %v) seeded to slot %d, want %d", seed, i, net.deadMark[i], got, want)
				return false
			}
			switch {
			case net.deadMark[i]:
				dead++
			case want < 0:
				unrouted++
			default:
				routed++
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if routed == 0 || unrouted == 0 || dead == 0 {
		t.Errorf("buckets seeded %d, left to the engine %d, dead %d; want all three", routed, unrouted, dead)
	}
}
