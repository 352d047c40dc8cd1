package retrieval

import (
	"errors"
	"fmt"
	"sort"

	"imflow/internal/maxflow"
)

// Oracle is the reference solver used for cross-validation: it enumerates
// every candidate completion time D_j + X_j + k*C_j, binary-searches the
// sorted candidates for the smallest feasible one, and answers each
// feasibility question with a from-scratch Edmonds-Karp run. It is the
// most obviously-correct construction (feasibility is monotone in t and
// the optimum is always a candidate), and deliberately shares no code path
// with the integrated algorithms it validates.
type Oracle struct{}

// NewOracle returns the reference solver.
func NewOracle() *Oracle { return &Oracle{} }

// Name implements Solver.
func (*Oracle) Name() string { return "oracle" }

// Solve implements Solver.
func (o *Oracle) Solve(p *Problem) (*Result, error) {
	return o.SolveMasked(p, nil)
}

// SolveMasked is Solve on the masked problem, the reference the failover
// cross-check tests compare the integrated solvers against. Like
// FailoverSolver.SolveMaskedInto it returns a valid partial schedule plus
// an *InfeasibleError when buckets lost every replica.
func (*Oracle) SolveMasked(p *Problem, mask *DiskMask) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	net := &network{}
	net.rebuildMasked(p, mask)
	engine := maxflow.NewEdmondsKarp(net.g)
	res := &Result{Stats: Stats{Engine: engine.Name()}}
	target := net.target()

	if target == 0 {
		// Every bucket lost all replicas; there is nothing to search.
		if err := net.finishDegraded(res); err != nil {
			var inf *InfeasibleError
			if errors.As(err, &inf) {
				return res, err
			}
			return nil, err
		}
		return res, nil
	}

	cands := net.candidateTimes()
	feasible := func(i int) bool {
		net.capsForTime(cands[i])
		net.g.ZeroFlows()
		res.Stats.MaxflowRuns++
		flow := engine.Run(net.s, net.t)
		maxflow.Audit(net.g, net.s, net.t)
		return flow == target
	}
	// sort.Search finds the smallest index whose candidate is feasible;
	// feasibility is monotone in t because capacities are.
	idx := sort.Search(len(cands), feasible)
	if idx == len(cands) {
		return nil, fmt.Errorf("retrieval: no feasible candidate time (malformed problem?): %w", ErrInfeasible)
	}
	// Re-establish the optimal flow state (the last probe may have been an
	// infeasible candidate).
	net.capsForTime(cands[idx])
	net.g.ZeroFlows()
	if got := engine.Run(net.s, net.t); got != target {
		return nil, fmt.Errorf("retrieval: oracle re-run got flow %d, want %d", got, target)
	}
	maxflow.Audit(net.g, net.s, net.t)
	res.Stats.Flow = *engine.Metrics()
	err := net.finishDegraded(res)
	if err != nil {
		var inf *InfeasibleError
		if !errors.As(err, &inf) {
			return nil, err
		}
	}
	if res.Schedule.ResponseTime != cands[idx] {
		return nil, fmt.Errorf("retrieval: oracle schedule makespan %v != optimal candidate %v",
			res.Schedule.ResponseTime, cands[idx])
	}
	return res, err
}

// Solvers returns every generalized-problem solver in the repository,
// keyed by name: the integrated algorithms (Algorithm 6 as printed is
// "pr-binary-bisect"; "pr-binary" searches by min-cut jumps), the
// black-box baseline, the parallel variant (with the given thread
// count), and the oracle. FFBasic
// is omitted because it only accepts homogeneous instances; construct it
// explicitly where the basic problem is intended.
func Solvers(threads int) map[string]Solver {
	return map[string]Solver{
		"ff-incremental":     NewFFIncremental(),
		"pr-incremental":     NewPRIncremental(),
		"pr-binary":          NewPRBinary(),
		"pr-binary-bisect":   NewPRBinaryBisect(),
		"pr-binary-blackbox": NewPRBinaryBlackBox(),
		"pr-binary-parallel": NewPRBinaryParallel(threads),
		"oracle":             NewOracle(),
	}
}
