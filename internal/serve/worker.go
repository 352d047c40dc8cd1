package serve

import (
	"errors"
	"fmt"
	"time"

	"imflow/internal/cost"
	"imflow/internal/retrieval"
)

// sinceSubmit returns the wall-clock age of a query's admission, zero for
// queries that never went through Submit (white-box tests drive workers
// directly). The stamp is for observability only: response times and
// schedules never read it.
func sinceSubmit(q *Query) time.Duration {
	if q.submitted.IsZero() {
		return 0
	}
	return time.Since(q.submitted)
}

// record is the single terminal-outcome sink: it writes the query's slot
// in the results array and fires the Options.OnResult hook. Every path
// that finishes a query — served, deadline-rejected, or canceled — must
// go through it exactly once.
//
//imflow:noalloc
func (w *worker) record(r Result) {
	w.srv.results[r.Seq] = r
	if w.srv.opt.OnResult != nil {
		w.srv.opt.OnResult(r)
	}
}

// rejectCanceled rejects a query whose propagated context was canceled
// while it sat in the shard queue: the submitter has gone away, so
// solving would burn a batch slot on an answer nobody reads. Concurrent
// paths only — the deterministic mode ignores Query.Ctx, because a
// wall-clock cancellation check would make replay scheduling-dependent.
// Canceled queries are recorded, never served, so no served response
// depends on when the cancellation landed.
//
//imflow:noalloc
func (w *worker) rejectCanceled(q *Query) bool {
	if q.Ctx == nil {
		return false
	}
	select {
	case <-q.Ctx.Done():
	default:
		return false
	}
	w.srv.nCanceled.Add(1)
	w.record(Result{Seq: q.Seq, Worker: w.id, Rejected: true, Reason: RejectCanceled, Latency: sinceSubmit(q)})
	return true
}

// worker serves one shard. Every buffer below is pinned to the worker for
// the server's whole lifetime: after the backing arrays converge to the
// workload's peak shape, a served query performs no heap allocations
// (audit builds excepted).
type worker struct {
	id  int
	srv *Server

	solver retrieval.ReusableSolver
	prob   retrieval.Problem
	res    retrieval.Result

	local []cost.Micros // concurrent mode: batch-local busy horizons
	added []cost.Micros // concurrent mode: service time scheduled this batch, per disk
	batch []Query       // admission batch drain buffer

	// Fault-mode state: the failover view of the pinned solver (nil when
	// the solver cannot mask), the batch-local snapshots of the health
	// mask and slowdown factors, the epoch the snapshot was taken at, a
	// conflict scratch list, and the errors.As target for partial
	// retrievals (pinned: a local's address would escape to the heap).
	fsolver   retrieval.FailoverSolver
	mask      *retrieval.DiskMask
	slow      []int64
	epoch     uint64
	conflicts []int
	inf       *retrieval.InfeasibleError

	// tableStale marks that a mid-batch fault refresh may have changed
	// the slowdown factors, so the batch-shared disk table must be
	// rebuilt before the next query uses it.
	tableStale bool
}

// newWorker builds worker id with its pinned solver and presized state.
func (s *Server) newWorker(id int) *worker {
	n := s.sys.NumDisks()
	w := &worker{
		id:     id,
		srv:    s,
		solver: s.opt.NewSolver(),
		prob:   retrieval.Problem{Disks: make([]retrieval.DiskParams, n)},
		local:  make([]cost.Micros, n),
		added:  make([]cost.Micros, n),
		batch:  make([]Query, 0, s.opt.Batch),
		mask:   retrieval.NewDiskMask(n),
		slow:   make([]int64, n),
	}
	w.fsolver, _ = w.solver.(retrieval.FailoverSolver)
	for j := range w.slow {
		w.slow[j] = 1
	}
	return w
}

// loop is the shard's serving loop: block for one query, coalesce whatever
// else is already queued (up to Options.Batch) into an admission batch,
// serve the batch. After a server-level failure the loop keeps draining so
// blocked submitters are released, but serves nothing. The noalloc
// analyzer holds the loop (and the serve paths below) to zero
// steady-state allocations.
//
//imflow:noalloc
func (w *worker) loop(queue <-chan Query) {
	for {
		first, ok := <-queue
		if !ok {
			return
		}
		w.batch = w.batch[:0]
		w.batch = append(w.batch, first)
	coalesce:
		for len(w.batch) < w.srv.opt.Batch {
			select {
			case q, ok := <-queue:
				if !ok {
					break coalesce
				}
				w.batch = append(w.batch, q)
			default:
				break coalesce
			}
		}
		if w.srv.failed.Load() {
			continue // drain-only: release submitters, serve nothing
		}
		if err := w.serveBatch(w.batch); err != nil {
			//lint:ignore noalloc cold failure exit; fires once and flips the server into drain mode
			w.srv.fail(fmt.Errorf("serve: worker %d: %w", w.id, err))
		}
	}
}

// serveBatch dispatches on the server mode.
func (w *worker) serveBatch(batch []Query) error {
	if w.srv.opt.Deterministic {
		return w.serveDeterministic(batch)
	}
	return w.serveConcurrent(batch)
}

// serveDeterministic serves the batch with exact sequential semantics:
// the shared state is held across the batch (single shard, so the lock is
// uncontended), the clock is the query's arrival, and every query sees the
// loads of all its predecessors. This path mirrors sim.Simulator.Submit
// step for step, which is what makes its response times bit-identical to
// stream replay.
//
//imflow:noalloc
func (w *worker) serveDeterministic(batch []Query) error {
	s := w.srv
	faultOn := s.faultOn.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range batch {
		q := &batch[i]
		if q.Arrival < s.clock {
			//lint:ignore noalloc cold failure exit; misuse report, aborts the batch
			return fmt.Errorf("arrival %v before clock %v (deterministic mode needs ordered arrivals)", q.Arrival, s.clock)
		}
		s.clock = q.Arrival
		if w.rejectLateAt(q, s.clock) {
			continue
		}
		var dropped int
		if faultOn {
			// The chaos clock is the arrival instant — the same advance
			// rule as sim.Simulator with a fault state, which keeps the
			// two bit-identical under one schedule. The lock is held
			// across solve and write-back, so mid-solve failures (and
			// the repair path) cannot occur in this mode.
			s.advanceFault(s.clock)
			w.mask.CopyFrom(s.health)
			copy(w.slow, s.slow)
			w.epoch = s.faultEpoch.Load()
		}
		w.rebuildProblem(s.busyUntil, s.clock, q.Replicas)
		if faultOn {
			if err := w.solveMasked(&dropped); err != nil {
				return err
			}
		} else if err := w.solver.SolveInto(&w.prob, &w.res); err != nil {
			return err
		}
		w.countSolve()
		worst := w.applyLoads(s.busyUntil, s.clock)
		w.countDegraded(dropped)
		if s.opt.OnSchedule != nil {
			s.opt.OnSchedule(w.id, q, &w.prob, w.res.Schedule)
		}
		w.record(Result{
			Seq:          q.Seq,
			Worker:       w.id,
			ResponseTime: worst,
			Finish:       cost.SatAdd(q.Arrival, worst),
			Latency:      sinceSubmit(q),
			Dropped:      dropped,
		})
	}
	return nil
}

// serveConcurrent serves the batch in the online mode: snapshot the shared
// horizons once, solve the whole batch against the snapshot (each query
// still seeing the loads of its in-batch predecessors), then fold the
// service time the batch scheduled back into the shared horizons. Two
// lock acquisitions per batch, no lock held while solving. The write-back
// is additive — start from max(shared horizon, now) and append the
// batch's service time — so concurrent workers can never lose each
// other's load, they only observe it up to one batch late.
//
//imflow:noalloc
func (w *worker) serveConcurrent(batch []Query) error {
	s := w.srv
	now := s.now()
	faultOn := s.faultOn.Load()
	s.mu.Lock()
	copy(w.local, s.busyUntil)
	if faultOn {
		s.advanceFault(now)
		w.mask.CopyFrom(s.health)
		copy(w.slow, s.slow)
		w.epoch = s.faultEpoch.Load()
	}
	s.mu.Unlock()
	for j := range w.added {
		w.added[j] = 0
	}
	// Batch-shared network inputs: the disk table is built once from the
	// snapshot, and after each query only the disks its schedule touched
	// are refreshed — a served query changes nothing else. A mid-batch
	// fault refresh flips tableStale (the slowdown factors may have
	// moved), forcing a full rebuild before the next query.
	w.buildDiskTable(w.local, now)
	for i := range batch {
		q := &batch[i]
		if w.rejectCanceled(q) || w.rejectLate(q) {
			continue
		}
		if w.tableStale {
			w.buildDiskTable(w.local, now)
		}
		w.prob.Replicas = q.Replicas
		var dropped, failovers int
		if faultOn {
			if err := w.solveFaulty(q, now, &dropped, &failovers); err != nil {
				return err
			}
		} else {
			if err := w.solver.SolveInto(&w.prob, &w.res); err != nil {
				return err
			}
			w.countSolve()
		}
		worst := w.applyLoads(w.local, now)
		w.addServiceTime(w.res.Schedule)
		w.countDegraded(dropped)
		if s.opt.OnSchedule != nil {
			s.opt.OnSchedule(w.id, q, &w.prob, w.res.Schedule)
		}
		w.record(Result{
			Seq:          q.Seq,
			Worker:       w.id,
			ResponseTime: worst,
			Finish:       cost.SatAdd(now, worst),
			Latency:      sinceSubmit(q),
			Dropped:      dropped,
			Failovers:    failovers,
		})
		// Only now fold the served load into the shared table: the next
		// query must see it, but OnSchedule above validates the schedule
		// against the problem it was solved from.
		for j, k := range w.res.Schedule.Counts {
			if k != 0 {
				w.refreshDisk(j, w.local, now)
			}
		}
	}
	w.writeBack(now)
	return nil
}

// addServiceTime charges a served schedule's blocks to the batch's
// per-disk service-time accumulator, at the service times the schedule
// was solved against — the same charge applyLoads just added to the
// batch-local horizons. The charge must be taken per query: a mid-batch
// fault refresh can move a disk's slowdown factor, and the shared
// horizons must still agree with the responses the batch reported.
//
//imflow:noalloc
func (w *worker) addServiceTime(sch *retrieval.Schedule) {
	for j, k := range sch.Counts {
		if k != 0 {
			w.added[j] = cost.SatAdd(w.added[j], cost.SatMul(cost.Micros(k), w.prob.Disks[j].Service))
		}
	}
}

// writeBack folds the batch's accumulated service time into the shared
// busy horizons. It is additive — each touched disk's queue restarts
// from max(shared horizon, now) — so concurrent workers never lose each
// other's load.
//
//imflow:noalloc
func (w *worker) writeBack(now cost.Micros) {
	s := w.srv
	s.mu.Lock()
	for j, busy := range w.added {
		if busy == 0 {
			continue
		}
		start := s.busyUntil[j]
		if start < now {
			start = now
		}
		s.busyUntil[j] = cost.SatAdd(start, busy)
	}
	s.mu.Unlock()
}

// rejectLate rejects a query whose admission deadline elapsed (wall
// clock) while it sat in the shard queue. Concurrent mode only.
//
//imflow:noalloc
func (w *worker) rejectLate(q *Query) bool {
	if q.Deadline <= 0 || sinceSubmit(q) <= q.Deadline {
		return false
	}
	w.srv.nRejected.Add(1)
	w.record(Result{Seq: q.Seq, Worker: w.id, Rejected: true, Reason: RejectDeadline, Latency: sinceSubmit(q)})
	return true
}

// rejectLateAt is deterministic mode's deadline check: the age is model
// time — the serving clock minus the query's arrival — never the wall
// clock, so replay with deadlines set stays bit-identical to sim no
// matter how the goroutines are scheduled. The clock is passed in by the
// mutex-holding caller. The age converts through Micros.Duration, which
// saturates: a clock at the Max sentinel rejects the query instead of
// wrapping negative and slipping past the deadline comparison.
//
//imflow:noalloc
func (w *worker) rejectLateAt(q *Query, clock cost.Micros) bool {
	if q.Deadline <= 0 {
		return false
	}
	if age := cost.SatSub(clock, q.Arrival).Duration(); age <= q.Deadline {
		return false
	}
	w.srv.nRejected.Add(1)
	w.record(Result{Seq: q.Seq, Worker: w.id, Rejected: true, Reason: RejectDeadline, Latency: sinceSubmit(q)})
	return true
}

// countSolve folds one completed solver call into the reuse counters.
//
//imflow:noalloc
func (w *worker) countSolve() {
	w.srv.nSolves.Add(1)
	if w.res.Stats.Warm {
		w.srv.nWarm.Add(1)
	}
}

// countDegraded folds one served query into the graceful-degradation
// counters.
//
//imflow:noalloc
func (w *worker) countDegraded(dropped int) {
	if w.srv.faultOn.Load() && w.mask.FailedCount() > 0 {
		w.srv.nDegraded.Add(1)
	}
	if dropped > 0 {
		w.srv.nDropped.Add(int64(dropped))
	}
}

// solveMasked runs the degraded solve against the worker's mask snapshot.
func (w *worker) solveMasked(dropped *int) error {
	return w.partial(w.fsolver.SolveMaskedInto(&w.prob, w.mask, &w.res), dropped)
}

// partial converts a degraded solve's partial retrieval (InfeasibleError)
// into a dropped-bucket count: a valid partial schedule is a served query,
// not a failure.
func (w *worker) partial(err error, dropped *int) error {
	*dropped = 0
	if err != nil && errors.As(err, &w.inf) {
		*dropped = len(w.inf.Buckets)
		return nil
	}
	return err
}

// solveFaulty is the online fault-mode solve: solve against the batch's
// mask snapshot, then — while chaos has moved since the snapshot (epoch
// change) — re-snapshot and repair the schedule in place for every
// scheduled disk that failed mid-solve, until the schedule is current.
// A repair is FailoverSolver.MarkFailed: mask the disk in the solver's
// network and search again, dropping buckets left with no live replica.
// The loop needs no bound: a repaired disk is masked inside the solver
// and never carries flow again in this solve, so each round that repairs
// anything masks a disk no earlier round did, and there are at most as
// many rounds as disks. A fault therefore never rejects a query.
func (w *worker) solveFaulty(q *Query, now cost.Micros, dropped, failovers *int) error {
	s := w.srv
	if err := w.solveMasked(dropped); err != nil {
		return err
	}
	w.countSolve()
	for {
		if s.afterSolve != nil {
			s.afterSolve(w, q)
		}
		if s.faultEpoch.Load() == w.epoch {
			return nil // no chaos since the snapshot: the schedule is current
		}
		w.refreshFault(now)
		if w.findConflicts() == 0 {
			return nil // chaos moved but missed this query's disks
		}
		s.nRetries.Add(1)
		for _, d := range w.conflicts {
			*failovers++
			s.nFailovers.Add(1)
			if err := w.partial(w.fsolver.MarkFailed(d, &w.res), dropped); err != nil {
				return err
			}
		}
	}
}

// refreshFault re-snapshots the live health mask and slowdown factors,
// advancing the chaos cursor to now first.
func (w *worker) refreshFault(now cost.Micros) {
	s := w.srv
	s.mu.Lock()
	s.advanceFault(now)
	w.mask.CopyFrom(s.health)
	copy(w.slow, s.slow)
	w.epoch = s.faultEpoch.Load()
	s.mu.Unlock()
	// The slowdown factors may have moved: the batch-shared disk table
	// must be rebuilt before the next query solves against it.
	w.tableStale = true
}

// findConflicts collects the disks the current schedule routes through
// that the (refreshed) mask now marks failed.
func (w *worker) findConflicts() int {
	w.conflicts = w.conflicts[:0]
	for d, k := range w.res.Schedule.Counts {
		if k > 0 && w.mask.Failed(d) {
			w.conflicts = append(w.conflicts, d)
		}
	}
	return len(w.conflicts)
}

// rebuildProblem refreshes the worker's pinned Problem in place for one
// query: the full disk table plus the query's replica lists. The
// deterministic path uses it per query; the concurrent path shares one
// table per batch (buildDiskTable + refreshDisk) instead.
//
//imflow:noalloc
func (w *worker) rebuildProblem(busy []cost.Micros, now cost.Micros, replicas [][]int) {
	w.buildDiskTable(busy, now)
	w.prob.Replicas = replicas
}

// buildDiskTable rebuilds the pinned Problem's whole disk table from the
// busy horizons as seen at now, and clears tableStale.
//
//imflow:noalloc
func (w *worker) buildDiskTable(busy []cost.Micros, now cost.Micros) {
	for j := range w.srv.sys.Disks {
		w.refreshDisk(j, busy, now)
	}
	w.tableStale = false
}

// refreshDisk recomputes one disk's table row: the system parameters with
// the residual busy time (as seen at now) as the initial load X_j, exactly
// as sim.Simulator.ProblemAt computes it.
//
//imflow:noalloc
func (w *worker) refreshDisk(j int, busy []cost.Micros, now cost.Micros) {
	d := w.srv.sys.Disks[j]
	load := cost.Micros(0)
	if busy[j] > now {
		load = cost.SatSub(busy[j], now)
	}
	service, delay := d.Service, d.Delay
	if f := w.slow[j]; f > 1 {
		// Transient slowdown (fault injection): the disk serves and
		// answers f times slower until the chaos SlowEnd.
		service = cost.SatMul(service, cost.Micros(f))
		delay = cost.SatMul(delay, cost.Micros(f))
	}
	w.prob.Disks[j] = retrieval.DiskParams{Service: service, Delay: delay, Load: load}
}

// applyLoads executes the solved schedule against the busy horizons and
// returns the query's response time: each assigned disk appends its blocks
// to its queue, and the response is the slowest site-delayed completion.
// The arithmetic mirrors sim.Simulator.Submit exactly — that equivalence
// is load-bearing for the deterministic mode's bit-identical guarantee.
//
//imflow:noalloc
func (w *worker) applyLoads(busy []cost.Micros, now cost.Micros) cost.Micros {
	var worst cost.Micros
	for j, k := range w.res.Schedule.Counts {
		if k == 0 {
			continue
		}
		start := busy[j]
		if start < now {
			start = now
		}
		busy[j] = cost.SatAdd(start, cost.SatMul(cost.Micros(k), w.prob.Disks[j].Service))
		finish := cost.SatAdd(busy[j], w.prob.Disks[j].Delay)
		if resp := cost.SatSub(finish, now); resp > worst {
			worst = resp
		}
	}
	return worst
}
