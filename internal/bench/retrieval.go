package bench

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"imflow/internal/cost"
	"imflow/internal/experiment"
	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
	"imflow/internal/query"
	"imflow/internal/retrieval"
)

// RetrievalOptions configures the steady-state retrieval benchmark suite
// behind cmd/imflow-bench.
type RetrievalOptions struct {
	Ns      []int  // grid sizes to sweep (the system is N x N per site)
	Queries int    // problems per cell
	Repeats int    // measured passes over the batch per solver
	Seed    uint64 // workload seed
	Threads int    // worker count for the parallel engine
	ExpNum  int    // Table IV experiment (default 2: generalized, heterogeneous)

	// BaselineMaxN caps the grid size for the quadratic reference engines
	// (Edmonds-Karp, relabel-to-front, scaling EK). On an N x N grid a range
	// query reaches O(N^2) buckets, and those engines are superlinear in the
	// vertex count — at N=60 relabel-to-front alone needs tens of minutes,
	// which would make `make bench` irreproducible in practice. Cells larger
	// than this run only the paper's solvers and the near-linear engines.
	BaselineMaxN int
}

// withDefaults fills zero fields with the paper-scale defaults.
func (o RetrievalOptions) withDefaults() RetrievalOptions {
	if len(o.Ns) == 0 {
		o.Ns = []int{20, 60, 100}
	}
	if o.Queries <= 0 {
		o.Queries = 20
	}
	if o.Repeats <= 0 {
		o.Repeats = 2
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Threads <= 0 {
		o.Threads = 2
	}
	if o.ExpNum == 0 {
		o.ExpNum = 2
	}
	if o.BaselineMaxN <= 0 {
		o.BaselineMaxN = 32
	}
	return o
}

// SmokeRetrievalOptions returns the small configuration the CI smoke job
// runs: one tiny cell, still covering every solver.
func SmokeRetrievalOptions() RetrievalOptions {
	return RetrievalOptions{Ns: []int{10}, Queries: 6, Repeats: 2}.withDefaults()
}

// RetrievalRecord is one (cell, solver) measurement of the steady-state
// integrated solve loop. All *_per_op fields are averages over
// repeats x queries SolveInto calls.
type RetrievalRecord struct {
	Cell           string  `json:"cell"`
	N              int     `json:"n"`
	Solver         string  `json:"solver"`
	Engine         string  `json:"engine"`
	Queries        int     `json:"queries"`
	Repeats        int     `json:"repeats"`
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	BytesPerOp     float64 `json:"bytes_per_op"`
	MaxflowRuns    float64 `json:"maxflow_runs_per_op"`
	Increments     float64 `json:"increments_per_op"`
	BinarySteps    float64 `json:"binary_steps_per_op"`
	AugmentingPath float64 `json:"augmenting_paths_per_op"`
	Pushes         float64 `json:"pushes_per_op"`
	Relabels       float64 `json:"relabels_per_op"`
	GlobalRelabels float64 `json:"global_relabels_per_op"`
	ArcScans       float64 `json:"arc_scans_per_op"`
	MeanResponseUs float64 `json:"mean_response_us"`

	// Warm* fields measure the cross-query warm-start path: the same
	// solver re-solving load-perturbed variants of each problem without a
	// structure change, so every solve after the first reuses the previous
	// residual network instead of rebuilding. WarmSpeedup is the cold
	// NsPerOp over WarmNsPerOp.
	WarmNsPerOp     float64 `json:"warm_ns_per_op,omitempty"`
	WarmAllocsPerOp float64 `json:"warm_allocs_per_op,omitempty"`
	WarmSpeedup     float64 `json:"warm_speedup,omitempty"`
}

// failoverDepth is how many disks the failover sweep fails, one after
// another, on every problem of a cell.
const failoverDepth = 2

// FailoverRecord times conserved failover against a fresh solve. With
// FailedDisks-1 disks already failed and repaired, the busiest live disk
// fails next: the conserved solver masks it in place and searches again
// from the flow it holds (MarkFailed), and a second solver solves the same
// mask from scratch (SolveMaskedInto). RepairFreshRatio is RepairNsPerOp
// over FreshNsPerOp, so a ratio below 1 means conserving the flow pays.
type FailoverRecord struct {
	Cell             string  `json:"cell"`
	N                int     `json:"n"`
	FailedDisks      int     `json:"failed_disks"`
	Queries          int     `json:"queries"`
	RepairNsPerOp    float64 `json:"repair_ns_per_op"`
	FreshNsPerOp     float64 `json:"fresh_ns_per_op"`
	RepairFreshRatio float64 `json:"repair_fresh_ratio"`
}

// RetrievalReport is the BENCH_retrieval.json document.
type RetrievalReport struct {
	Schema     string            `json:"schema"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs,omitempty"`
	Audit      bool              `json:"audit_build"`
	Options    RetrievalOptions  `json:"options"`
	Records    []RetrievalRecord `json:"records"`
	Failover   []FailoverRecord  `json:"failover"`
}

// benchSolver pairs a solver constructor with whether it is a quadratic
// reference baseline (subject to RetrievalOptions.BaselineMaxN).
type benchSolver struct {
	mk       func() retrieval.ReusableSolver
	baseline bool
}

// retrievalSolvers enumerates every benchmarked solver: the integrated
// algorithms of the paper, the black-box baseline, and the Algorithm 6
// control flow driven by each remaining max-flow engine family.
func retrievalSolvers(threads int) []benchSolver {
	return []benchSolver{
		{mk: func() retrieval.ReusableSolver { return retrieval.NewFFIncremental() }},
		{mk: func() retrieval.ReusableSolver { return retrieval.NewPRIncremental() }},
		{mk: func() retrieval.ReusableSolver { return retrieval.NewPRBinary() }},
		{mk: func() retrieval.ReusableSolver { return retrieval.NewPRBinaryBlackBox() }},
		{mk: func() retrieval.ReusableSolver { return retrieval.NewPRBinaryHighestLabel() }},
		{mk: func() retrieval.ReusableSolver { return retrieval.NewPRBinaryParallel(threads) }},
		{baseline: true, mk: func() retrieval.ReusableSolver {
			return retrieval.NewPRBinaryWithEngine("pr-binary-ek",
				func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewEdmondsKarp(g) })
		}},
		{mk: func() retrieval.ReusableSolver {
			return retrieval.NewPRBinaryWithEngine("pr-binary-dinic",
				func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewDinic(g) })
		}},
		{baseline: true, mk: func() retrieval.ReusableSolver {
			return retrieval.NewPRBinaryWithEngine("pr-binary-rtf",
				func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewRelabelToFront(g) })
		}},
		{baseline: true, mk: func() retrieval.ReusableSolver {
			return retrieval.NewPRBinaryWithEngine("pr-binary-scaling-ek",
				func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewScalingEdmondsKarp(g) })
		}},
	}
}

// RunRetrieval executes the steady-state retrieval suite and returns the
// report. Every solver is warmed on the full batch (two passes, letting all
// reused buffers converge to the cell's peak problem shape) and then timed
// over Repeats further passes with allocation counters around the loop.
// Each cell then gets failoverDepth failover records from pr-binary.
func RunRetrieval(o RetrievalOptions) (*RetrievalReport, error) {
	o = o.withDefaults()
	report := &RetrievalReport{
		Schema:     "imflow/bench-retrieval/v1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Audit:      maxflow.AuditEnabled,
		Options:    o,
	}
	for _, n := range o.Ns {
		cfg := experiment.Config{
			ExpNum:  o.ExpNum,
			Alloc:   experiment.RDA,
			Type:    query.Range,
			Load:    query.Load2,
			N:       n,
			Queries: o.Queries,
			Seed:    o.Seed + uint64(n)*1000003,
		}
		inst, err := cfg.Build()
		if err != nil {
			return nil, err
		}
		// All solvers are optimal, so their response times on the shared
		// batch must agree; the first solver anchors the cross-check.
		var anchor []int64
		for _, bs := range retrievalSolvers(o.Threads) {
			if bs.baseline && n > o.BaselineMaxN {
				continue
			}
			rec, responses, err := measureReusable(bs.mk(), inst.Problems, o.Repeats)
			if err != nil {
				return nil, fmt.Errorf("bench: cell %s: %w", cfg, err)
			}
			if anchor == nil {
				anchor = responses
			} else {
				for i := range anchor {
					if anchor[i] != responses[i] {
						return nil, fmt.Errorf("bench: cell %s: %s response %d on query %d, expected %d",
							cfg, rec.Solver, responses[i], i, anchor[i])
					}
				}
			}
			rec.Cell = cfg.String()
			rec.N = n
			warmNs, warmAllocs, err := measureWarm(bs.mk(), bs.mk(), inst.Problems, o.Repeats)
			if err != nil {
				return nil, fmt.Errorf("bench: cell %s: warm %s: %w", cfg, rec.Solver, err)
			}
			rec.WarmNsPerOp = warmNs
			rec.WarmAllocsPerOp = warmAllocs
			if warmNs > 0 {
				rec.WarmSpeedup = rec.NsPerOp / warmNs
			}
			report.Records = append(report.Records, rec)
		}
		failover, err := measureFailover(inst.System.NumDisks(), inst.Problems)
		if err != nil {
			return nil, fmt.Errorf("bench: cell %s: failover: %w", cfg, err)
		}
		for _, rec := range failover {
			rec.Cell, rec.N = cfg.String(), n
			report.Failover = append(report.Failover, rec)
		}
	}
	return report, nil
}

// busiestLive returns the live disk carrying the most blocks of the
// schedule, -1 when nothing is scheduled on a live disk.
func busiestLive(counts []int64, mask *retrieval.DiskMask) int {
	best, bestCount := -1, int64(0)
	for j, c := range counts {
		if c > bestCount && !mask.Failed(j) {
			best, bestCount = j, c
		}
	}
	return best
}

// stranded reports whether err is the partial-serve infeasibility of a
// degraded solve, and passes any other error through.
func stranded(err error) (bool, error) {
	var inf *retrieval.InfeasibleError
	if err == nil || errors.As(err, &inf) {
		return err != nil, nil
	}
	return false, err
}

// measureFailover fails, per problem, the busiest live disk failoverDepth
// times in a row. Each failure is timed twice: as one MarkFailed of the
// conserved solver, which re-runs Algorithm 6 from the flow its last solve
// or repair left, and as one fresh masked solve at the same mask.
// Even problems run the repair first and odd ones the fresh solve, so
// neither side always inherits the other's cache state. The two must agree
// on response time and on whether buckets were stranded. One untimed pass
// sizes every reused buffer before the timed pass.
func measureFailover(numDisks int, problems []*retrieval.Problem) ([]FailoverRecord, error) {
	conserved, fresh := retrieval.NewPRBinary(), retrieval.NewPRBinary()
	mask := retrieval.NewDiskMask(numDisks)
	var res, freshRes retrieval.Result
	var took [failoverDepth][2]time.Duration // [failure][repair, fresh]
	var ops [failoverDepth]int
	pass := func() error {
		for i, p := range problems {
			mask.Reset(numDisks)
			if err := conserved.SolveInto(p, &res); err != nil {
				return err
			}
			for f := 0; f < failoverDepth; f++ {
				d := busiestLive(res.Schedule.Counts, mask)
				if d < 0 {
					break // every scheduled block is already stranded
				}
				mask.MarkFailed(d)
				sides := [2]func() error{
					func() error { return conserved.MarkFailed(d, &res) },
					func() error { return fresh.SolveMaskedInto(p, mask, &freshRes) },
				}
				var errs [2]error
				for k := 0; k < 2; k++ {
					side := (i + k) % 2
					start := time.Now()
					errs[side] = sides[side]()
					took[f][side] += time.Since(start)
				}
				repairStranded, err := stranded(errs[0])
				if err != nil {
					return err
				}
				freshStranded, err := stranded(errs[1])
				if err != nil {
					return err
				}
				if repairStranded != freshStranded || res.Schedule.ResponseTime != freshRes.Schedule.ResponseTime {
					return fmt.Errorf("problem %d, failure %d (disk %d): repair response %d (stranded %t), fresh solve %d (stranded %t)",
						i, f+1, d, res.Schedule.ResponseTime, repairStranded, freshRes.Schedule.ResponseTime, freshStranded)
				}
				ops[f]++
			}
		}
		return nil
	}
	if err := pass(); err != nil {
		return nil, err
	}
	took, ops = [failoverDepth][2]time.Duration{}, [failoverDepth]int{}
	if err := pass(); err != nil {
		return nil, err
	}
	records := make([]FailoverRecord, failoverDepth)
	for f := range records {
		rec := FailoverRecord{FailedDisks: f + 1, Queries: ops[f]}
		if ops[f] > 0 {
			rec.RepairNsPerOp = float64(took[f][0].Nanoseconds()) / float64(ops[f])
			rec.FreshNsPerOp = float64(took[f][1].Nanoseconds()) / float64(ops[f])
		}
		if rec.FreshNsPerOp > 0 {
			rec.RepairFreshRatio = rec.RepairNsPerOp / rec.FreshNsPerOp
		}
		records[f] = rec
	}
	return records, nil
}

// measureReusable times the steady-state SolveInto loop of one solver over
// one problem batch and returns the record plus the per-problem response
// times for cross-checking.
func measureReusable(s retrieval.ReusableSolver, problems []*retrieval.Problem, repeats int) (RetrievalRecord, []int64, error) {
	rec := RetrievalRecord{Solver: s.Name(), Queries: len(problems), Repeats: repeats}
	res := &retrieval.Result{}
	responses := make([]int64, len(problems))
	// Warm-up: two full passes size every reused buffer to the batch's
	// peak shape, so the measured passes see the steady state.
	for pass := 0; pass < 2; pass++ {
		for i, p := range problems {
			if err := s.SolveInto(p, res); err != nil {
				return rec, nil, err
			}
			responses[i] = int64(res.Schedule.ResponseTime)
		}
	}
	rec.Engine = res.Stats.Engine

	var work WorkTotals
	var augment, globalRelabels int64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < repeats; r++ {
		for _, p := range problems {
			if err := s.SolveInto(p, res); err != nil {
				return rec, nil, err
			}
			work.add(&res.Stats)
			augment += res.Stats.Flow.Augmentations
			globalRelabels += res.Stats.Flow.GlobalRelabels
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	ops := float64(repeats * len(problems))
	rec.NsPerOp = float64(elapsed.Nanoseconds()) / ops
	rec.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / ops
	rec.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / ops
	rec.MaxflowRuns = float64(work.MaxflowRuns) / ops
	rec.Increments = float64(work.Increments) / ops
	rec.BinarySteps = float64(work.BinarySteps) / ops
	rec.AugmentingPath = float64(augment) / ops
	rec.Pushes = float64(work.Pushes) / ops
	rec.Relabels = float64(work.Relabels) / ops
	rec.GlobalRelabels = float64(globalRelabels) / ops
	rec.ArcScans = float64(work.ArcScans) / ops
	var sum cost.Micros
	for _, r := range responses {
		sum = cost.SatAdd(sum, cost.Micros(r))
	}
	if len(responses) > 0 {
		rec.MeanResponseUs = float64(int64(sum)) / float64(len(responses))
	}
	return rec, responses, nil
}

// perturbLoads applies the deterministic round-r load perturbation for one
// problem on top of its saved original loads. Only X_j moves — the replica
// structure and service parameters stay fixed, which is exactly the shape
// the warm-start path accepts.
func perturbLoads(p *retrieval.Problem, saved []cost.Micros, r int) {
	for j := range p.Disks {
		p.Disks[j].Load = cost.SatAdd(saved[j], cost.Micros((r*7919+j*131)%100_000))
	}
}

// measureWarm times the warm-start path of one solver: each problem is
// solved once cold (rebuilding the network for its structure), then
// repeats load-perturbed re-solves run against the kept residual flow.
// Every warm response is cross-checked bit for bit against a cold solver
// on the same perturbed problem, and the batch's original loads are
// restored before returning so later solvers see it unchanged.
func measureWarm(s, check retrieval.ReusableSolver, problems []*retrieval.Problem, repeats int) (nsPerOp, allocsPerOp float64, err error) {
	res, fresh := &retrieval.Result{}, &retrieval.Result{}
	saved := make([][]cost.Micros, len(problems))
	for i, p := range problems {
		saved[i] = make([]cost.Micros, len(p.Disks))
		for j := range p.Disks {
			saved[i][j] = p.Disks[j].Load
		}
	}
	restore := func() {
		for i, p := range problems {
			for j := range p.Disks {
				p.Disks[j].Load = saved[i][j]
			}
		}
	}
	defer restore()

	warm := make([]int64, len(problems))
	var elapsed time.Duration
	pass := func() error {
		for i, p := range problems {
			// Cold anchor for this structure (untimed): the perturbed
			// solves below all warm-start on its residual.
			perturbLoads(p, saved[i], 0)
			if err := s.SolveInto(p, res); err != nil {
				return err
			}
			start := time.Now()
			for r := 1; r <= repeats; r++ {
				perturbLoads(p, saved[i], r)
				if err := s.SolveInto(p, res); err != nil {
					return err
				}
			}
			elapsed += time.Since(start)
			if !res.Stats.Warm {
				return fmt.Errorf("%s did not warm-start on an unchanged structure", s.Name())
			}
			warm[i] = int64(res.Schedule.ResponseTime)
		}
		return nil
	}
	// Sizing passes: two untimed replays of the exact measured sequence
	// (matching measureReusable's warm-up), so every reused buffer —
	// including engine scratch that scales with the perturbed capacities —
	// converges before the window opens.
	for pre := 0; pre < 2; pre++ {
		if err := pass(); err != nil {
			return 0, 0, err
		}
	}
	elapsed = 0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := pass(); err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&after)
	for i, p := range problems {
		perturbLoads(p, saved[i], repeats)
		if err := check.SolveInto(p, fresh); err != nil {
			return 0, 0, err
		}
		if got := int64(fresh.Schedule.ResponseTime); got != warm[i] {
			return 0, 0, fmt.Errorf("warm response %d on problem %d, cold solve says %d", warm[i], i, got)
		}
	}
	ops := float64(repeats * len(problems))
	nsPerOp = float64(elapsed.Nanoseconds()) / ops
	// The allocation window also spans the per-problem cold anchors; both
	// paths share the steady-state zero-allocation guarantee, so the
	// denominator counts every solve in the window.
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / (ops + float64(len(problems)))
	return nsPerOp, allocsPerOp, nil
}
