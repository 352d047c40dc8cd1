// Package sim is an event-driven simulator of the paper's application
// model (Section II-A): multi-site storage arrays serving a stream of
// queries. It is the substrate that *produces* the initial-load values X_j
// the generalized retrieval problem consumes — after each scheduled query,
// the simulator advances the per-disk busy horizons, so the next query
// sees realistic residual loads instead of synthetic ones.
package sim

import (
	"errors"
	"fmt"
	"sort"

	"imflow/internal/cost"
	"imflow/internal/fault"
	"imflow/internal/retrieval"
	"imflow/internal/storage"
)

// Scheduler decides which replica serves each bucket of a query; the
// retrieval solvers satisfy this via SolverScheduler.
type Scheduler interface {
	Name() string
	Schedule(p *retrieval.Problem) (*retrieval.Schedule, error)
}

// FaultAware is a Scheduler that can route around failed disks: given the
// live failure mask it returns a (possibly partial) schedule plus the
// buckets it had to drop because every replica was down.
type FaultAware interface {
	Scheduler
	ScheduleMasked(p *retrieval.Problem, mask *retrieval.DiskMask) (*retrieval.Schedule, []int, error)
}

// SolverScheduler adapts a retrieval.Solver into a Scheduler. For fault
// injection, wrap a failover-capable solver in FailoverScheduler instead.
type SolverScheduler struct {
	Solver retrieval.Solver
}

// Name implements Scheduler.
func (s SolverScheduler) Name() string { return s.Solver.Name() }

// Schedule implements Scheduler.
func (s SolverScheduler) Schedule(p *retrieval.Problem) (*retrieval.Schedule, error) {
	res, err := s.Solver.Solve(p)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

// FailoverScheduler adapts a retrieval.FailoverSolver into a FaultAware
// scheduler for fault-injected runs.
type FailoverScheduler struct {
	Solver retrieval.FailoverSolver
}

// Name implements Scheduler.
func (s FailoverScheduler) Name() string { return s.Solver.Name() }

// Schedule implements Scheduler.
func (s FailoverScheduler) Schedule(p *retrieval.Problem) (*retrieval.Schedule, error) {
	return SolverScheduler{Solver: s.Solver}.Schedule(p)
}

// ScheduleMasked implements FaultAware via the solver's degraded-solve
// path. Infeasible buckets become the dropped list rather than an error:
// partial retrieval is the contract, not a failure. The list is a copy,
// since the solver reuses the error's own on its next call.
func (s FailoverScheduler) ScheduleMasked(p *retrieval.Problem, mask *retrieval.DiskMask) (*retrieval.Schedule, []int, error) {
	res := &retrieval.Result{}
	err := s.Solver.SolveMaskedInto(p, mask, res)
	var inf *retrieval.InfeasibleError
	if errors.As(err, &inf) {
		return res.Schedule, append([]int(nil), inf.Buckets...), nil
	}
	if err != nil {
		return nil, nil, err
	}
	return res.Schedule, nil, nil
}

// Query is one arrival in the simulated stream.
type Query struct {
	Arrival  cost.Micros
	Replicas [][]int // per requested bucket: the global disks holding it
}

// QueryResult records the outcome of one simulated query.
type QueryResult struct {
	Arrival      cost.Micros
	ResponseTime cost.Micros // schedule makespan as seen by the client
	Finish       cost.Micros // absolute completion instant
	Schedule     *retrieval.Schedule
	// Dropped lists the requested buckets that could not be retrieved
	// because every replica was on a failed disk (fault injection only;
	// nil on a healthy run). The schedule covers the other buckets.
	Dropped []int
}

// DiskTrace records per-disk utilization over a run.
type DiskTrace struct {
	Blocks    int64       // blocks served
	BusyUntil cost.Micros // absolute instant the disk drains its queue
}

// Simulator replays a query stream against a storage system, invoking the
// scheduler with the live initial loads.
type Simulator struct {
	sys   *storage.System
	sched Scheduler

	clock     cost.Micros
	busyUntil []cost.Micros
	traces    []DiskTrace
	results   []QueryResult
	fault     *fault.State
}

// New returns a simulator over the given system and scheduler.
func New(sys *storage.System, sched Scheduler) *Simulator {
	return &Simulator{
		sys:       sys,
		sched:     sched,
		busyUntil: make([]cost.Micros, sys.NumDisks()),
		traces:    make([]DiskTrace, sys.NumDisks()),
	}
}

// SetFault installs a chaos replay cursor: from now on Submit advances it
// to each query's arrival, inflates slowed disks' parameters, and solves
// around failed disks. The scheduler must be FaultAware. A State over a
// nil/empty schedule is accepted and leaves every result bit-identical to
// the fault-free run. Pass nil to remove fault injection.
func (s *Simulator) SetFault(st *fault.State) error {
	if st != nil {
		if _, ok := s.sched.(FaultAware); !ok {
			return fmt.Errorf("sim: scheduler %s cannot route around failures", s.sched.Name())
		}
	}
	s.fault = st
	return nil
}

// Clock returns the current simulated time.
func (s *Simulator) Clock() cost.Micros { return s.clock }

// Results returns the per-query outcomes recorded so far.
func (s *Simulator) Results() []QueryResult { return s.results }

// Traces returns per-disk utilization.
func (s *Simulator) Traces() []DiskTrace { return s.traces }

// LoadAt returns disk j's initial load as seen at time now: the residual
// busy time, zero if idle.
func (s *Simulator) LoadAt(j int, now cost.Micros) cost.Micros {
	if s.busyUntil[j] <= now {
		return 0
	}
	return cost.SatSub(s.busyUntil[j], now)
}

// ProblemAt builds the generalized retrieval problem for a query arriving
// now, snapshotting the live loads.
func (s *Simulator) ProblemAt(replicas [][]int, now cost.Micros) *retrieval.Problem {
	p := &retrieval.Problem{
		Disks:    make([]retrieval.DiskParams, s.sys.NumDisks()),
		Replicas: replicas,
	}
	for j, d := range s.sys.Disks {
		p.Disks[j] = retrieval.DiskParams{
			Service: d.Service,
			Delay:   d.Delay,
			Load:    s.LoadAt(j, now),
		}
	}
	return p
}

// Submit runs one query through the simulator at its arrival time and
// returns its result. Arrivals must be non-decreasing.
func (s *Simulator) Submit(q Query) (*QueryResult, error) {
	if q.Arrival < s.clock {
		return nil, fmt.Errorf("sim: arrival %v before clock %v", q.Arrival, s.clock)
	}
	s.clock = q.Arrival
	p := s.ProblemAt(q.Replicas, s.clock)
	var sched *retrieval.Schedule
	var dropped []int
	var err error
	if s.fault != nil {
		s.fault.Advance(s.clock)
		s.fault.ApplyTo(p) // transient slowdowns inflate C_j/D_j
		sched, dropped, err = s.sched.(FaultAware).ScheduleMasked(p, s.fault.Mask())
	} else {
		sched, err = s.sched.Schedule(p)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: scheduling query at %v: %w", q.Arrival, err)
	}
	if err := p.ValidatePartialSchedule(sched, dropped); err != nil {
		return nil, fmt.Errorf("sim: scheduler returned invalid schedule: %w", err)
	}
	// Execute: each assigned disk appends its blocks to its queue; the
	// query's response is the slowest site-delayed completion. Service and
	// delay come from the problem, not the system, so a transiently slow
	// disk really is slower to drain — on a healthy run the two are equal
	// (ProblemAt copies them verbatim).
	var worst cost.Micros
	for j, k := range sched.Counts {
		if k == 0 {
			continue
		}
		start := s.busyUntil[j]
		if start < s.clock {
			start = s.clock
		}
		s.busyUntil[j] = cost.SatAdd(start, cost.SatMul(cost.Micros(k), p.Disks[j].Service))
		s.traces[j].Blocks += k
		s.traces[j].BusyUntil = s.busyUntil[j]
		finish := cost.SatAdd(s.busyUntil[j], p.Disks[j].Delay)
		if resp := cost.SatSub(finish, s.clock); resp > worst {
			worst = resp
		}
	}
	r := QueryResult{
		Arrival:      q.Arrival,
		ResponseTime: worst,
		Finish:       cost.SatAdd(q.Arrival, worst),
		Schedule:     sched,
		Dropped:      dropped,
	}
	s.results = append(s.results, r)
	return &r, nil
}

// Run replays a whole stream (sorted by arrival) and returns the results.
func (s *Simulator) Run(stream []Query) ([]QueryResult, error) {
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Arrival < stream[j].Arrival })
	out := make([]QueryResult, 0, len(stream))
	for _, q := range stream {
		r, err := s.Submit(q)
		if err != nil {
			return out, err
		}
		out = append(out, *r)
	}
	return out, nil
}
