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

// HighestLabelEngine builds the highest-label push-relabel variant — an
// ablation point over the paper's FIFO vertex-selection rule.
func HighestLabelEngine(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewHighestLabel(g) }

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
	mask    DiskMask // scratch for MarkFailed's fresh-solve fallback
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
//
//imflow:det
func (s *PRIncremental) SolveInto(p *Problem, res *Result) error {
	return s.solveMasked(p, nil, res)
}

// solveMasked is the shared body of SolveInto (nil mask) and
// SolveMaskedInto. The noalloc analyzer holds it to zero steady-state
// allocations.
//
//imflow:noalloc
func (s *PRIncremental) solveMasked(p *Problem, mask *DiskMask, res *Result) error {
	if err := p.Validate(); err != nil {
		return err
	}
	net := &s.net
	// A warm start reuses the previous build; the threshold walk must
	// still begin from zero flow and zero capacities (see warm.go), so
	// only the rebuild itself is skipped.
	warm := net.prepare(p, mask)
	if warm {
		net.resetRun()
	}
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

// PRBinary is Algorithm 6: the integrated push-relabel solver with binary
// capacity scaling. A binary search over candidate response times
// [tmin, tmax) brings the capacities within N increments of the optimum in
// O(log |Q|) max-flow runs; flows computed at infeasible midpoints are
// stored and conserved (they remain valid when capacities grow), while
// flows computed at feasible midpoints are rolled back (the optimum may be
// lower). The final stretch runs Algorithm 5 from tmin's capacities.
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
	st       incrementState
	saved    []int64
	mask     DiskMask // scratch for MarkFailed's fresh-solve fallback
}

// NewPRBinary returns the integrated Algorithm 6 solver (sequential
// engine, flow conservation on).
func NewPRBinary() *PRBinary {
	return &PRBinary{name: "pr-binary", factory: SequentialEngine, conserve: true}
}

// NewPRBinaryBlackBox returns the black-box baseline of [12]: identical
// control flow, but every max-flow run starts from zero flow.
func NewPRBinaryBlackBox() *PRBinary {
	return &PRBinary{name: "pr-binary-blackbox", factory: SequentialEngine, conserve: false}
}

// NewPRBinaryHighestLabel returns the integrated Algorithm 6 solver backed
// by the highest-label push-relabel engine instead of FIFO — used to
// ablate the paper's vertex-selection choice.
func NewPRBinaryHighestLabel() *PRBinary {
	return &PRBinary{name: "pr-binary-highest", factory: HighestLabelEngine, conserve: true}
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
//
//imflow:det
func (s *PRBinary) SolveInto(p *Problem, res *Result) error {
	return s.solveMasked(p, nil, res)
}

// solveMasked is the shared body of SolveInto (nil mask) and
// SolveMaskedInto. The noalloc analyzer holds it to zero steady-state
// allocations.
//
//imflow:noalloc
func (s *PRBinary) solveMasked(p *Problem, mask *DiskMask, res *Result) error {
	if err := p.Validate(); err != nil {
		return err
	}
	net := &s.net
	// A conserving warm start carries the previous query's maximal flow
	// into this solve: instead of the cold path's snapshot/rollback dance,
	// every capacity probe drains the carried flow to the probe's
	// capacities (DrainExcess) and augments the difference. Probe
	// feasibility depends only on the capacities, so the bracket
	// trajectory and every counter stay bit-identical to a cold solve.
	// The black-box baseline zeroes flows before every run either way, so
	// its warm start only skips the rebuild.
	warm := net.prepare(p, mask)
	if warm && !s.conserve {
		net.g.ZeroFlows()
	}
	if s.engine == nil {
		s.engine = s.factory(net.g)
	} else {
		s.engine.Reset()
	}
	engine := s.engine
	*engine.Metrics() = maxflow.Metrics{}
	res.Stats = Stats{Engine: engine.Name(), Warm: warm}
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
	nTotal := cost.Micros(len(p.Disks))
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

	if s.conserve && !warm {
		s.saved = net.g.SnapshotFlows(s.saved) // all-zero snapshot
	}
	// The paper loops while (tmax - tmin) >= minSpeed over reals; with
	// integer microseconds that admits a no-progress iteration when the
	// bracket narrows to exactly minSpeed = 1us (tmid == tmin), so the
	// strict comparison is required. The final incremental stretch closes
	// any remaining gap either way.
	for cost.SatSub(tmax, tmin) > minSpeed {
		tmid := cost.SatAdd(tmin, cost.SatSub(tmax, tmin)/2)
		net.capsForTime(tmid)
		if s.conserve {
			if warm {
				// Warm conservation: drain the carried flow down to this
				// probe's capacities and let the engine augment the rest.
				net.g.DrainExcess(net.s, net.t)
			}
		} else {
			net.g.ZeroFlows()
		}
		flow := engine.Run(net.s, net.t)
		res.Stats.MaxflowRuns++
		res.Stats.BinarySteps++
		maxflow.Audit(net.g, net.s, net.t)
		if flow != target {
			// Infeasible: keep (store) these flows — they stay valid at
			// every larger capacity setting — and raise the floor.
			if s.conserve && !warm {
				s.saved = net.g.SnapshotFlows(s.saved)
			}
			tmin = tmid
		} else {
			// Feasible: the optimum may be lower, so roll back to the last
			// infeasible flow state and lower the ceiling. On the warm path
			// the next probe's DrainExcess performs the equivalent cut-down
			// in place, so there is nothing to restore.
			if s.conserve && !warm {
				net.g.RestoreFlows(s.saved)
			}
			tmax = tmid
		}
	}

	// Final stretch: Algorithm 5 from tmin's capacities. At most N more
	// increments separate tmin from the optimum.
	if s.conserve {
		if !warm {
			net.g.RestoreFlows(s.saved)
		}
	} else {
		net.g.ZeroFlows()
	}
	net.capsForTime(tmin)
	if s.conserve && warm {
		net.g.DrainExcess(net.s, net.t)
	}
	s.st.reset(net)
	if !s.conserve {
		net.g.ZeroFlows()
	}
	flow := engine.Run(net.s, net.t)
	res.Stats.MaxflowRuns++
	maxflow.Audit(net.g, net.s, net.t)
	for flow < target {
		if s.st.incrementMinCost(net) == cost.Max {
			//lint:ignore noalloc cold failure exit; aborts the solve, never the steady state
			return fmt.Errorf("retrieval: flow %d short of %d with all disk edges saturated: %w", flow, target, ErrInfeasible)
		}
		res.Stats.Increments++
		if !s.conserve {
			net.g.ZeroFlows()
		}
		flow = engine.Run(net.s, net.t)
		res.Stats.MaxflowRuns++
		maxflow.Audit(net.g, net.s, net.t)
	}
	res.Stats.Flow = *engine.Metrics()
	return net.finishDegraded(res)
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
