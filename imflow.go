// Package imflow is an implementation of "Integrated Maximum Flow
// Algorithm for Optimal Response Time Retrieval of Replicated Data"
// (Altiparmak & Tosun, ICPP 2012).
//
// Given a query over buckets replicated across heterogeneous, multi-site
// disk arrays with network delays and initial loads, the library computes
// the retrieval schedule minimizing the query's response time. The
// package-level API re-exports the core types and solver constructors; the
// substrates (declustering schemes, workload generators, max-flow engines,
// the storage simulator, and the benchmark harness that regenerates the
// paper's figures) live in the internal packages and the cmd/ binaries.
//
// Quick use:
//
//	p := &imflow.Problem{
//	    Disks: []imflow.DiskParams{
//	        {Service: imflow.FromMillis(6.1)},
//	        {Service: imflow.FromMillis(0.2), Delay: imflow.FromMillis(1)},
//	    },
//	    Replicas: [][]int{{0, 1}, {0}, {1}},
//	}
//	res, err := imflow.NewPRBinary().Solve(p)
//	// res.Schedule.Assignment, res.Schedule.ResponseTime
//
// Solver selection:
//
//   - NewPRBinary: the paper's contribution — integrated push-relabel
//     with flow conservation — searching by min-cut jumps instead of
//     Algorithm 6's bisection. Use this one. Algorithm 6 as printed is
//     Solvers(n)["pr-binary-bisect"], with the same response times.
//   - NewPRBinaryParallel: the same with the lock-free multithreaded
//     push-relabel engine of Section V.
//   - NewPRBinaryBlackBox: the prior-work baseline ([12]) that re-runs
//     max-flow from zero flow at every capacity setting.
//   - NewPRIncremental (Algorithm 5), NewFFIncremental (Algorithm 2),
//     NewFFBasic (Algorithm 1, basic/homogeneous problem only): the other
//     algorithms of the paper.
//   - NewOracle: slow, obviously-correct reference solver.
//   - NewGreedy: fast non-optimal heuristic baseline.
package imflow

import (
	"imflow/internal/cost"
	"imflow/internal/retrieval"
)

// Core problem/solution types (see internal/retrieval for details).
type (
	// Problem is one instance of the generalized optimal response time
	// retrieval problem.
	Problem = retrieval.Problem
	// DiskParams are a disk's scheduling parameters: service time C_j,
	// network delay D_j, initial load X_j.
	DiskParams = retrieval.DiskParams
	// Schedule is a retrieval decision with its response time.
	Schedule = retrieval.Schedule
	// Result bundles a schedule with the solver's work counters.
	Result = retrieval.Result
	// Stats reports the work a solver performed.
	Stats = retrieval.Stats
	// Solver computes optimal response time schedules.
	Solver = retrieval.Solver
	// DiskMask is the set of failed disks of a system; masked solves route
	// around it (see FailoverSolver).
	DiskMask = retrieval.DiskMask
	// FailoverSolver is a solver that handles disk failures: degraded
	// (masked) solves with partial retrieval, and in-place MarkFailed
	// failover that masks the disk in the solver's network and searches
	// again from the flow the last solve left.
	FailoverSolver = retrieval.FailoverSolver
	// InfeasibleError names the buckets a degraded solve had to drop
	// because every replica was on a failed disk.
	InfeasibleError = retrieval.InfeasibleError
	// Micros is the integer-microsecond time unit used throughout.
	Micros = cost.Micros
)

// ErrInfeasible is the sentinel every infeasibility error wraps; match
// with errors.Is. Degraded solves that drop buckets return an
// *InfeasibleError (which wraps it) alongside a valid partial schedule.
var ErrInfeasible = retrieval.ErrInfeasible

// NewDiskMask returns an all-healthy failure mask over numDisks disks.
func NewDiskMask(numDisks int) *DiskMask { return retrieval.NewDiskMask(numDisks) }

// FromMillis converts (possibly fractional) milliseconds to Micros.
func FromMillis(ms float64) Micros { return cost.FromMillis(ms) }

// NewPRBinary returns the integrated push-relabel solver, the paper's
// headline algorithm with one change to its search: where Algorithm 6
// bisects the bracket of response times, it jumps to the bound each
// short max-flow run's minimum cut sets, and so usually needs one or two
// runs instead of 16-21. Its response times equal Algorithm 6's.
func NewPRBinary() Solver { return retrieval.NewPRBinary() }

// NewPRBinaryParallel returns Algorithm 6 backed by the lock-free
// multithreaded push-relabel engine with the given worker count.
func NewPRBinaryParallel(threads int) Solver { return retrieval.NewPRBinaryParallel(threads) }

// NewPRBinaryBlackBox returns the black-box baseline of the paper's
// reference [12]: identical search, but every max-flow run starts from
// zero flow.
func NewPRBinaryBlackBox() Solver { return retrieval.NewPRBinaryBlackBox() }

// NewPRIncremental returns the integrated push-relabel solver without
// binary scaling (Algorithm 5).
func NewPRIncremental() Solver { return retrieval.NewPRIncremental() }

// NewFFIncremental returns the integrated Ford-Fulkerson solver for the
// generalized problem (Algorithm 2).
func NewFFIncremental() Solver { return retrieval.NewFFIncremental() }

// NewFFBasic returns the Ford-Fulkerson solver for the basic
// (homogeneous, no-delay, no-load) problem (Algorithm 1).
func NewFFBasic() Solver { return retrieval.NewFFBasic() }

// NewOracle returns the reference solver used for cross-validation.
func NewOracle() Solver { return retrieval.NewOracle() }

// NewGreedy returns the fast non-optimal heuristic baseline.
func NewGreedy() Solver { return retrieval.NewGreedy() }

// Bottleneck describes which disks and buckets pin a query's optimal
// response time.
type Bottleneck = retrieval.Bottleneck

// ExplainBottleneck solves the problem and diagnoses its bottleneck: the
// binding disks (whose next block completion defines the response time)
// and the buckets confined to them.
func ExplainBottleneck(p *Problem) (*Bottleneck, *Schedule, error) {
	return retrieval.ExplainBottleneck(p)
}

// Solvers returns every generalized-problem solver keyed by name.
func Solvers(threads int) map[string]Solver {
	out := map[string]Solver{}
	for k, v := range retrieval.Solvers(threads) {
		out[k] = v
	}
	out["greedy"] = retrieval.NewGreedy()
	return out
}
