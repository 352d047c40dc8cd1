package retrieval

import (
	"fmt"

	"imflow/internal/cost"
	"imflow/internal/maxflow"
)

// FFBasic is Algorithm 1 of the paper: the integrated Ford-Fulkerson
// solution of Chen & Rotem for the *basic* retrieval problem (homogeneous
// disks, no delays, no initial loads, single capacity for all disk edges).
//
// Disk-edge capacities start at ceil(|Q|/N); each bucket's unit of flow is
// routed by a DFS from its vertex to the sink, and whenever no augmenting
// path exists, *every* disk edge's capacity is incremented at once.
//
// On heterogeneous instances the schedule it returns minimizes the maximum
// per-disk bucket count, not the response time; Solve rejects problems
// whose disks are not identical so the algorithm is never silently misused.
type FFBasic struct {
	net network
	ff  *maxflow.FordFulkerson
}

// NewFFBasic returns the Algorithm 1 solver.
func NewFFBasic() *FFBasic { return &FFBasic{} }

// Name implements Solver.
func (*FFBasic) Name() string { return "ff-basic" }

// Solve implements Solver.
func (s *FFBasic) Solve(p *Problem) (*Result, error) {
	res := &Result{}
	if err := s.SolveInto(p, res); err != nil {
		return nil, err
	}
	return res, nil
}

// SolveInto implements ReusableSolver. The noalloc analyzer holds this
// body to zero steady-state allocations.
//
//imflow:noalloc
func (s *FFBasic) SolveInto(p *Problem, res *Result) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := requireHomogeneous(p); err != nil {
		return err
	}
	net := &s.net
	// A warm start skips the rebuild only; the base-capacity sweep below
	// sets every disk capacity itself, so zeroing the carried flow is all
	// the reset a reused graph needs.
	warm := net.prepare(p, nil)
	if warm {
		net.g.ZeroFlows()
	}
	g := net.g
	if s.ff == nil {
		s.ff = maxflow.NewFordFulkerson(g)
	} else {
		s.ff.Reset()
	}
	ff := s.ff
	*ff.Metrics() = maxflow.Metrics{}
	res.Stats = Stats{Engine: ff.Name(), Warm: warm}

	// caps[e] <- ceil(|Q|/N), the theoretical lower bound, over all N
	// disks in the system (the paper divides by the total disk count).
	n := int64(len(p.Disks))
	base := (int64(net.q) + n - 1) / n
	for k := range net.diskIDs {
		net.setCap(k, base)
	}

	for i := 0; i < net.q; i++ {
		g.Push(net.srcArc[i], 1) // the bucket's unit of flow enters the network
		for ff.AugmentFromAvoiding(net.bucketVertex(i), net.t, net.s) == 0 {
			for k := range net.diskIDs {
				net.setCap(k, net.caps[k]+1)
			}
			res.Stats.Increments++
		}
		res.Stats.MaxflowRuns++
		maxflow.AuditFlow(g, net.s, net.t)
	}
	maxflow.Audit(g, net.s, net.t)
	res.Stats.Flow = *ff.Metrics()
	if res.Schedule == nil {
		//lint:ignore noalloc first call only; steady-state reuse passes a non-nil Schedule
		res.Schedule = &Schedule{}
	}
	if err := net.extractScheduleInto(p, res.Schedule); err != nil {
		return err
	}
	net.warmOK = true
	return nil
}

// FFIncremental is Algorithm 2 of the paper: the integrated Ford-Fulkerson
// solution for the *generalized* retrieval problem. Capacities start at
// zero and, whenever a bucket cannot reach the sink, only the disk edges
// whose next-unit completion cost D + X + (cap+1)*C is minimal are
// incremented (Algorithm 3). The flow found for earlier buckets is
// conserved throughout — the DFS works on the same residual graph.
type FFIncremental struct {
	net network
	ff  *maxflow.FordFulkerson
	st  incrementState
}

// NewFFIncremental returns the Algorithm 2 solver.
func NewFFIncremental() *FFIncremental { return &FFIncremental{} }

// Name implements Solver.
func (*FFIncremental) Name() string { return "ff-incremental" }

// Solve implements Solver.
func (s *FFIncremental) Solve(p *Problem) (*Result, error) {
	res := &Result{}
	if err := s.SolveInto(p, res); err != nil {
		return nil, err
	}
	return res, nil
}

// SolveInto implements ReusableSolver.
func (s *FFIncremental) SolveInto(p *Problem, res *Result) error {
	return s.SolveMaskedInto(p, nil, res)
}

// SolveMaskedInto implements FailoverSolver: it prepares the network for
// p under mask (rebuilt, or reused on a warm start) and runs the search.
// The noalloc analyzer holds it to zero steady-state allocations.
//
//imflow:noalloc
func (s *FFIncremental) SolveMaskedInto(p *Problem, mask *DiskMask, res *Result) error {
	if err := p.Validate(); err != nil {
		return err
	}
	warm := s.net.prepare(p, mask)
	return s.search(res, warm)
}

// MarkFailed implements FailoverSolver: mask the disk and walk again.
func (s *FFIncremental) MarkFailed(disk int, res *Result) error {
	if err := s.net.maskDisk(disk); err != nil {
		return err
	}
	return s.search(res, false)
}

// search is the bucket-at-a-time walk both entry points run. It starts
// from zero flow and zero capacities (resetRun): the walk has no earlier
// state to resume from (see warm.go), so a reused network keeps only its
// build.
//
//imflow:noalloc
func (s *FFIncremental) search(res *Result, warm bool) error {
	net := &s.net
	net.resetRun()
	g := net.g
	if s.ff == nil {
		s.ff = maxflow.NewFordFulkerson(g)
	} else {
		s.ff.Reset()
	}
	ff := s.ff
	*ff.Metrics() = maxflow.Metrics{}
	s.st.reset(net)
	res.Stats = Stats{Engine: ff.Name(), Warm: warm}

	for i := 0; i < net.q; i++ {
		if net.deadMark[i] {
			continue // every replica failed; the bucket is dropped
		}
		g.Push(net.srcArc[i], 1)
		for ff.AugmentFromAvoiding(net.bucketVertex(i), net.t, net.s) == 0 {
			if s.st.incrementMinCost(net) == cost.Max {
				//lint:ignore noalloc cold failure exit; aborts the solve, never the steady state
				return fmt.Errorf("retrieval: bucket %d unroutable with all disk edges saturated: %w", i, ErrInfeasible)
			}
			res.Stats.Increments++
		}
		res.Stats.MaxflowRuns++
		maxflow.AuditFlow(g, net.s, net.t)
	}
	maxflow.Audit(g, net.s, net.t)
	res.Stats.Flow = *ff.Metrics()
	return net.finishDegraded(res)
}

// requireHomogeneous rejects problems whose disks differ in any parameter.
// Allocates only on the misconfiguration exit.
//
//imflow:allocok
func requireHomogeneous(p *Problem) error {
	if len(p.Disks) == 0 {
		return fmt.Errorf("retrieval: no disks")
	}
	first := p.Disks[0]
	for j, d := range p.Disks {
		if d != first {
			return fmt.Errorf("retrieval: ff-basic requires homogeneous disks; disk %d differs (basic retrieval problem only)", j)
		}
	}
	return nil
}
