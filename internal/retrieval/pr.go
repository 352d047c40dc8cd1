package retrieval

import (
	"fmt"

	"imflow/internal/cost"
	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
	"imflow/internal/maxflow/parallel"
	"imflow/internal/threads"
)

// EngineFactory builds a max-flow engine bound to a network's graph. The
// push-relabel solvers are parameterized over it so the sequential FIFO
// engine and the lock-free parallel engine share all retrieval logic.
type EngineFactory func(*flowgraph.Graph) maxflow.Engine

// SequentialEngine builds the FIFO push-relabel engine with the exact
// height and gap heuristics (Algorithm 4's implementation).
func SequentialEngine(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewPushRelabel(g) }

// ParallelEngine builds the lock-free multithreaded push-relabel engine of
// Section V with the given worker count. threads <= 0 selects
// runtime.GOMAXPROCS(0), the scheduler's actual parallelism budget.
func ParallelEngine(n int) EngineFactory {
	n = threads.Normalize(n)
	return func(g *flowgraph.Graph) maxflow.Engine { return parallel.New(g, n) }
}

// PRIncremental is Algorithm 5: the integrated push-relabel solution that
// starts all disk-edge capacities at zero and alternates IncrementMinCost
// steps with push-relabel runs, conserving the flow between runs. Its
// worst case is O(c*|Q|^4) but the flow conservation makes each run cheap
// in practice.
type PRIncremental struct {
	factory EngineFactory
	net     network
	engine  maxflow.Engine
	st      incrementState
}

// NewPRIncremental returns the Algorithm 5 solver with the sequential
// engine.
func NewPRIncremental() *PRIncremental {
	return &PRIncremental{factory: SequentialEngine}
}

// Name implements Solver.
func (*PRIncremental) Name() string { return "pr-incremental" }

// Solve implements Solver.
func (s *PRIncremental) Solve(p *Problem) (*Result, error) {
	res := &Result{}
	if err := s.SolveInto(p, res); err != nil {
		return nil, err
	}
	return res, nil
}

// SolveInto implements ReusableSolver.
func (s *PRIncremental) SolveInto(p *Problem, res *Result) error {
	return s.SolveMaskedInto(p, nil, res)
}

// SolveMaskedInto implements FailoverSolver: it prepares the network for
// p under mask (rebuilt, or reused on a warm start) and runs the search.
// The noalloc analyzer holds it to zero steady-state allocations.
//
//imflow:noalloc
func (s *PRIncremental) SolveMaskedInto(p *Problem, mask *DiskMask, res *Result) error {
	if err := p.Validate(); err != nil {
		return err
	}
	warm := s.net.prepare(p, mask)
	return s.search(res, warm)
}

// MarkFailed implements FailoverSolver: mask the disk and walk again.
func (s *PRIncremental) MarkFailed(disk int, res *Result) error {
	if err := s.net.maskDisk(disk); err != nil {
		return err
	}
	return s.search(res, false)
}

// search is the threshold walk both entry points run. It starts from zero
// flow and zero capacities (resetRun): the walk has no earlier state to
// resume from (see warm.go), so a reused network keeps only its build.
//
//imflow:noalloc
func (s *PRIncremental) search(res *Result, warm bool) error {
	net := &s.net
	net.resetRun()
	if s.engine == nil {
		s.engine = s.factory(net.g)
	} else {
		s.engine.Reset()
	}
	engine := s.engine
	*engine.Metrics() = maxflow.Metrics{}
	s.st.reset(net)
	res.Stats = Stats{Engine: engine.Name(), Warm: warm}
	target := net.target()
	var flow int64
	for flow < target {
		if s.st.incrementMinCost(net) == cost.Max {
			//lint:ignore noalloc cold failure exit; aborts the solve, never the steady state
			return fmt.Errorf("retrieval: flow %d short of %d with all disk edges saturated: %w", flow, target, ErrInfeasible)
		}
		res.Stats.Increments++
		flow = engine.Run(net.s, net.t)
		res.Stats.MaxflowRuns++
		maxflow.Audit(net.g, net.s, net.t)
	}
	res.Stats.Flow = *engine.Metrics()
	return net.finishDegraded(res)
}

// PRBinary is the integrated push-relabel solver of Algorithm 6, which
// narrows a bracket of candidate response times by max-flow runs on the
// one residual network. NewPRBinary runs the min-cut search (cut.go):
// every short run's minimum cut bounds the optimum from below, and the
// search jumps straight to that bound. NewPRBinaryBisect and the other
// constructors run Algorithm 6 as printed: a binary search over
// [tmin, tmax) brings the capacities within N increments of the optimum
// in O(log |Q|) max-flow runs, and the final stretch runs Algorithm 5
// from tmin's capacities. Every run starts from the flow the previous
// run left, drained to the new capacities (flowgraph.DrainExcess), and,
// when the engine is a resumer, from the heights that run left. The
// paper's rule instead rolls the flow back to the last infeasible
// probe's after every feasible one; both rules reach the same bracket and
// optimum, since a probe's feasibility depends only on its capacities.
//
// With Conserve = false every max-flow run starts from the zero flow — the
// black-box algorithm of the paper's reference [12], kept as the baseline
// the integrated solver is measured against.
type PRBinary struct {
	name     string
	factory  EngineFactory
	conserve bool
	net      network
	engine   maxflow.Engine
	resume   resumer // engine's Resume, when it has one and conserve is on
	minCut   bool    // search by min-cut jumps (cut.go) instead of bisection
	st       incrementState
	cut      cutScratch
}

// resumer is an engine that can start a run from the heights its previous
// run on the same graph ended with (maxflow.PushRelabel.Resume), instead
// of recomputing them.
type resumer interface {
	Resume(s, t int) int64
}

// NewPRBinary returns the integrated solver the serving stack runs: the
// sequential engine with flow conservation on, searching by min-cut
// jumps instead of Algorithm 6's bisection. Its response times equal
// NewPRBinaryBisect's; it needs fewer max-flow runs, usually one or two.
func NewPRBinary() *PRBinary {
	return &PRBinary{name: "pr-binary", factory: SequentialEngine, conserve: true, minCut: true}
}

// NewPRBinaryBisect returns Algorithm 6 as the paper prints it:
// sequential engine, flow conservation on, bisection of the bracket. It
// is the solver every figure of the reproduction measures.
func NewPRBinaryBisect() *PRBinary {
	return &PRBinary{name: "pr-binary-bisect", factory: SequentialEngine, conserve: true}
}

// NewPRBinaryBlackBox returns the black-box baseline of [12]: identical
// control flow, but every max-flow run starts from zero flow.
func NewPRBinaryBlackBox() *PRBinary {
	return &PRBinary{name: "pr-binary-blackbox", factory: SequentialEngine, conserve: false}
}

// NewPRBinaryWithEngine returns the integrated Algorithm 6 solver backed
// by an arbitrary max-flow engine. The benchmark harness uses it to drive
// every engine in the repository through the identical integrated solve
// path; conservation stays on.
func NewPRBinaryWithEngine(name string, factory EngineFactory) *PRBinary {
	return &PRBinary{name: name, factory: factory, conserve: true}
}

// NewPRBinaryParallel returns the integrated Algorithm 6 solver backed by
// the lock-free parallel push-relabel engine of Section V. n <= 0
// selects runtime.GOMAXPROCS(0).
func NewPRBinaryParallel(n int) *PRBinary {
	n = threads.Normalize(n)
	return &PRBinary{
		name:     fmt.Sprintf("pr-binary-parallel(%d)", n),
		factory:  ParallelEngine(n),
		conserve: true,
	}
}

// Name implements Solver.
func (s *PRBinary) Name() string { return s.name }

// Solve implements Solver.
func (s *PRBinary) Solve(p *Problem) (*Result, error) {
	res := &Result{}
	if err := s.SolveInto(p, res); err != nil {
		return nil, err
	}
	return res, nil
}

// SolveInto implements ReusableSolver.
func (s *PRBinary) SolveInto(p *Problem, res *Result) error {
	return s.SolveMaskedInto(p, nil, res)
}

// SolveMaskedInto implements FailoverSolver: it prepares the network for
// p under mask (rebuilt, or reused on a warm start) and runs the search.
// The noalloc analyzer holds it to zero steady-state allocations.
//
//imflow:noalloc
func (s *PRBinary) SolveMaskedInto(p *Problem, mask *DiskMask, res *Result) error {
	if err := p.Validate(); err != nil {
		return err
	}
	warm := s.net.prepare(p, mask)
	return s.search(res, warm)
}

// MarkFailed implements FailoverSolver: mask the disk in the network the
// solver holds and search again; the min-cut search starts over from t0
// under the new mask. The conserving search starts from the flow the
// last solve left, so its first run's drain cancels the failed disk's
// flow and keeps the rest. The black box zeroes the flow at every run
// either way.
func (s *PRBinary) MarkFailed(disk int, res *Result) error {
	if err := s.net.maskDisk(disk); err != nil {
		return err
	}
	return s.search(res, false)
}

// search runs the solver's search on the prepared network, the body both
// entry points run: the min-cut search or Algorithm 6's bisection. A warm
// start or a MarkFailed only changes the flow it starts from: the first
// run drains (or, in the black box, zeroes) whatever flow the graph
// carries, the previous solve's included.
//
//imflow:noalloc
func (s *PRBinary) search(res *Result, warm bool) error {
	net := &s.net
	if s.engine == nil {
		s.engine = s.factory(net.g)
		// Asserted once here, not per run: a type assertion's runtime
		// cache may allocate the first times it meets a type.
		if s.conserve {
			s.resume, _ = s.engine.(resumer)
		}
	} else {
		s.engine.Reset()
	}
	*s.engine.Metrics() = maxflow.Metrics{}
	res.Stats = Stats{Engine: s.engine.Name(), Warm: warm}
	var err error
	if s.minCut {
		err = s.searchCut(res)
	} else {
		err = s.bisect(res)
	}
	if err != nil {
		return err
	}
	res.Stats.Flow = *s.engine.Metrics()
	return net.finishDegraded(res)
}

// bisect is Algorithm 6: bisect the bracket, then close the last gap with
// Algorithm 5's increments.
//
//imflow:noalloc
func (s *PRBinary) bisect(res *Result) error {
	net := &s.net
	target := net.target()

	// Bracket the optimum: tmax assumes every bucket is retrieved from the
	// disk with the largest retrieval cost (all capacities reach |Q|, so
	// tmax is feasible); tmin assumes the theoretical lower bound |Q|/N on
	// the cheapest disk, minus one block of the fastest disk. We
	// additionally clamp tmin below the fastest single-block completion
	// time, which makes its infeasibility unconditional (any schedule
	// retrieves at least one block from some disk). All bracket arithmetic
	// saturates at cost.Max rather than wrapping.
	minSpeed := cost.Max
	tmin := cost.Max
	var tmax cost.Micros
	nTotal := cost.Micros(len(net.prob.Disks))
	for k, dp := range net.params {
		if net.maskedSlot[k] {
			continue // failed disks do not bound the bracket
		}
		if up := dp.Finish(target); up > tmax {
			tmax = up
		}
		perDisk := cost.SatMul(cost.Micros(target), dp.Service) / nTotal
		if lo := cost.SatAdd(cost.SatAdd(dp.Delay, dp.Load), perDisk); lo < tmin {
			tmin = lo
		}
		if dp.Service < minSpeed {
			minSpeed = dp.Service
		}
	}
	tmin = cost.SatSub(tmin, minSpeed)
	if single := cost.SatSub(minSingleBlock(net), minSpeed); single < tmin {
		tmin = single
	}
	if tmin < 0 {
		tmin = 0
	}

	// The paper loops while (tmax - tmin) >= minSpeed over reals; with
	// integer microseconds that admits a no-progress iteration when the
	// bracket narrows to exactly minSpeed = 1us (tmid == tmin), so the
	// strict comparison is required. The final incremental stretch closes
	// any remaining gap either way.
	for cost.SatSub(tmax, tmin) > minSpeed {
		tmid := cost.SatAdd(tmin, cost.SatSub(tmax, tmin)/2)
		net.capsForTime(tmid)
		flow := s.run()
		res.Stats.MaxflowRuns++
		res.Stats.BinarySteps++
		if flow != target {
			tmin = tmid // infeasible: raise the floor
		} else {
			tmax = tmid // feasible: the optimum may be lower
		}
	}

	// Final stretch: Algorithm 5 from tmin's capacities. At most N more
	// increments separate tmin from the optimum.
	net.capsForTime(tmin)
	s.st.reset(net)
	flow := s.run()
	res.Stats.MaxflowRuns++
	for flow < target {
		if s.st.incrementMinCost(net) == cost.Max {
			//lint:ignore noalloc cold failure exit; aborts the solve, never the steady state
			return fmt.Errorf("retrieval: flow %d short of %d with all disk edges saturated: %w", flow, target, ErrInfeasible)
		}
		res.Stats.Increments++
		flow = s.run()
		res.Stats.MaxflowRuns++
	}
	return nil
}

// run is one max-flow run at the capacities just set, audited. The
// conserving rule drains the flow the previous run left down to those
// capacities and augments it; the black box starts from the zero flow.
func (s *PRBinary) run() int64 {
	if s.conserve {
		s.net.g.DrainExcess(s.net.s, s.net.t)
	} else {
		s.net.g.ZeroFlows()
	}
	return s.augment()
}

// augment runs the engine from the graph's current flow, resuming from
// the heights of its last run when it is a resumer, and audits the
// result. The min-cut search calls it directly: after its own drain and
// seed, and after raising capacities, which leaves nothing to drain.
func (s *PRBinary) augment() int64 {
	net := &s.net
	var flow int64
	if s.resume != nil {
		flow = s.resume.Resume(net.s, net.t)
	} else {
		flow = s.engine.Run(net.s, net.t)
	}
	maxflow.Audit(net.g, net.s, net.t)
	return flow
}

// minSingleBlock returns the fastest possible single-block completion time
// over the live participating disks.
func minSingleBlock(net *network) cost.Micros {
	best := cost.Max
	for k, dp := range net.params {
		if net.maskedSlot[k] {
			continue
		}
		if f := dp.Finish(1); f < best {
			best = f
		}
	}
	return best
}
