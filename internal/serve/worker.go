package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"imflow/internal/cost"
	"imflow/internal/retrieval"
	"imflow/internal/xrand"
)

// sinceSubmit returns the wall-clock age of a query's admission, zero for
// queries that never went through Submit (white-box tests drive workers
// directly).
//
//imflow:detsafe observability-only latency stamp; response times and schedules never read it
func sinceSubmit(q *Query) time.Duration {
	if q.submitted.IsZero() {
		return 0
	}
	return time.Since(q.submitted)
}

// record is the single terminal-outcome sink: it writes the query's slot
// in the results array and fires the Options.OnResult hook. Every path
// that finishes a query — served, deadline-rejected, canceled, or
// retry-exhausted — must go through it exactly once.
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
//
//imflow:detsafe cancellation is an external wall-clock event; canceled queries are recorded, never served, so pool width cannot change any served response
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
	// conflict scratch list, and the retry-jitter generator.
	fsolver   retrieval.FailoverSolver
	mask      *retrieval.DiskMask
	slow      []int64
	epoch     uint64
	conflicts []int
	rng       *xrand.Source

	// tableStale marks that a mid-batch fault refresh may have changed
	// the slowdown factors, so the batch-shared disk table must be
	// rebuilt before the next query uses it.
	tableStale bool

	// Batch-pool state (nil/empty unless Options.BatchParallelism >= 2):
	// the extra pinned solvers the batch fans across, one pinned result
	// slot per batch position (index-disjoint across pool members), and
	// the batch positions that survived admission.
	pool  []poolMember
	slots []poolSlot
	todo  []int
}

// poolMember is one pinned solver of the worker's intra-batch pool. Its
// Problem's disk table aliases the worker's batch-shared table (read-only
// while the pool is running); only the replica lists change per query.
type poolMember struct {
	solver retrieval.ReusableSolver
	prob   retrieval.Problem
	err    error
}

// poolSlot is the per-batch-position solve outcome: pinned like every
// other worker buffer, so the schedule arrays converge to the workload's
// peak shape and are then reused forever.
type poolSlot struct {
	res     retrieval.Result
	dropped int
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
		rng:    xrand.New(0xfa171 + uint64(id)),
	}
	w.fsolver, _ = w.solver.(retrieval.FailoverSolver)
	if p := s.opt.BatchParallelism; p >= 2 && !s.opt.Deterministic {
		w.pool = make([]poolMember, p)
		for m := range w.pool {
			w.pool[m].solver = s.opt.NewSolver()
			// Alias the worker's batch-shared disk table: phase B reads it,
			// nobody writes it while the pool runs.
			w.pool[m].prob.Disks = w.prob.Disks
		}
		w.slots = make([]poolSlot, s.opt.Batch)
		w.todo = make([]int, 0, s.opt.Batch)
	}
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

// serveBatch dispatches on the server mode. The batch pool takes over
// only for multi-query batches on the healthy online path: fault-mode
// repair is inherently sequential, and a single query has nothing to fan
// out.
func (w *worker) serveBatch(batch []Query) error {
	if w.srv.opt.Deterministic {
		return w.serveDeterministic(batch)
	}
	if len(w.pool) > 0 && len(batch) > 1 && !w.srv.faultOn.Load() {
		return w.serveBatchPool(batch)
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
//imflow:det
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
			// the retry path) cannot occur in this mode.
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
			served, err := w.solveFaulty(q, now, &dropped, &failovers)
			if err != nil {
				return err
			}
			if !served {
				continue // rejected after retry exhaustion, already recorded
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

// serveBatchPool is the intra-batch parallel variant of serveConcurrent:
// one shared-horizon snapshot and one batch-shared disk table (phase A),
// the batch's queries solved concurrently across the pinned pool members
// (phase B, round-robin by batch position), then a serial write-back in
// exact batch order (phase C) — so OnSchedule, the load application, and
// the recorded response times are ordered precisely as the serial path
// orders them. The assignments themselves are chosen against the
// batch-start table (no intra-batch load feedback; see
// Options.BatchParallelism), but each reported response replays the batch
// serially, so it accounts for every in-batch predecessor's load.
//
// The goroutine fan-out and its closures allocate per batch by design,
// exactly like the parallel max-flow engine; the pool path is therefore a
// boundary leaf of the noalloc walk.
//
//imflow:allocok
//imflow:det
func (w *worker) serveBatchPool(batch []Query) error {
	s := w.srv
	now := s.now()
	s.mu.Lock()
	copy(w.local, s.busyUntil)
	s.mu.Unlock()
	for j := range w.added {
		w.added[j] = 0
	}
	w.buildDiskTable(w.local, now)

	// Phase A: admission. Reject late queries up front so the pool only
	// sees solvable work.
	todo := w.todo[:0]
	for i := range batch {
		q := &batch[i]
		if !w.rejectCanceled(q) && !w.rejectLate(q) {
			todo = append(todo, i)
		}
	}
	w.todo = todo
	if len(todo) == 0 {
		return nil
	}

	// Phase B: parallel solve against the shared table. Member m owns
	// batch positions todo[m], todo[m+P], ... — slots are index-disjoint
	// and the disk table is read-only.
	p := len(w.pool)
	if p > len(todo) {
		p = len(todo)
	}
	var wg sync.WaitGroup
	for m := 0; m < p; m++ {
		pm := &w.pool[m]
		pm.err = nil
		wg.Add(1)
		//lint:ignore detpath index-disjoint slots solved against a read-only table; the serial phase-C write-back replays batch order, so results are pool-width-invariant
		go func(m int) {
			defer wg.Done()
			for j := m; j < len(todo); j += p {
				i := todo[j]
				slot := &w.slots[i]
				slot.dropped = 0
				pm.prob.Replicas = batch[i].Replicas
				if err := pm.solver.SolveInto(&pm.prob, &slot.res); err != nil {
					pm.err = err
					return
				}
				w.countSolveFor(&slot.res)
			}
		}(m)
	}
	wg.Wait()
	for m := range w.pool {
		if err := w.pool[m].err; err != nil {
			return err
		}
	}

	// Phase C: serial write-back in batch order.
	for _, i := range todo {
		q := &batch[i]
		slot := &w.slots[i]
		worst := w.applyLoadsFor(slot.res.Schedule, w.local, now)
		w.addServiceTime(slot.res.Schedule)
		w.countDegraded(slot.dropped)
		if s.opt.OnSchedule != nil {
			w.prob.Replicas = q.Replicas
			s.opt.OnSchedule(w.id, q, &w.prob, slot.res.Schedule)
		}
		w.record(Result{
			Seq:          q.Seq,
			Worker:       w.id,
			ResponseTime: worst,
			Finish:       cost.SatAdd(now, worst),
			Latency:      sinceSubmit(q),
			Dropped:      slot.dropped,
		})
	}
	w.writeBack(now)
	return nil
}

// addServiceTime charges a served schedule's blocks to the batch's
// per-disk service-time accumulator, at the service times the schedule
// was solved against — the same charge applyLoadsFor just added to the
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

// countSolveFor folds one completed solver call into the reuse counters.
//
//imflow:noalloc
func (w *worker) countSolveFor(res *retrieval.Result) {
	w.srv.nSolves.Add(1)
	if res.Stats.Warm {
		w.srv.nWarm.Add(1)
	}
}

// countSolve is countSolveFor on the worker's own pinned result.
//
//imflow:noalloc
func (w *worker) countSolve() { w.countSolveFor(&w.res) }

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

// solveMasked runs the degraded solve against the worker's mask snapshot,
// converting partial retrieval (InfeasibleError) into a dropped-bucket
// count: a valid partial schedule is a served query, not a failure.
func (w *worker) solveMasked(dropped *int) error {
	err := w.fsolver.SolveMaskedInto(&w.prob, w.mask, &w.res)
	if err == nil {
		*dropped = 0
		return nil
	}
	var inf *retrieval.InfeasibleError
	if errors.As(err, &inf) {
		*dropped = len(inf.Buckets)
		return nil
	}
	return err
}

// solveFaulty is the online fault-mode solve: solve against the batch's
// mask snapshot, then — if chaos moved meanwhile (epoch change) — repair
// the schedule in place with the conserved-flow failover
// (FailoverSolver.MarkFailed) for every scheduled disk that failed
// mid-solve. Repairs are bounded retries with exponential backoff +
// jitter; exhaustion rejects the query (recorded, served=false).
func (w *worker) solveFaulty(q *Query, now cost.Micros, dropped, failovers *int) (served bool, err error) {
	s := w.srv
	if err := w.solveMasked(dropped); err != nil {
		return false, err
	}
	w.countSolve()
	if s.afterSolve != nil {
		s.afterSolve(w, q)
	}
	for attempt := 0; ; {
		if s.faultEpoch.Load() == w.epoch {
			break // no chaos since the snapshot: the schedule is current
		}
		w.refreshFault(now)
		if w.findConflicts() == 0 {
			break // chaos moved but missed this query's disks
		}
		if attempt >= s.opt.MaxRetries {
			s.nRejected.Add(1)
			w.record(Result{Seq: q.Seq, Worker: w.id, Rejected: true, Reason: RejectFaults, Latency: sinceSubmit(q)})
			return false, nil
		}
		attempt++
		s.nRetries.Add(1)
		w.backoff(attempt)
		for _, d := range w.conflicts {
			*failovers++
			s.nFailovers.Add(1)
			if err := w.markFailed(d, dropped); err != nil {
				return false, err
			}
		}
	}
	return true, nil
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

// markFailed repairs the current query in place after disk d failed
// mid-solve, folding any newly-stranded buckets into the dropped count.
func (w *worker) markFailed(d int, dropped *int) error {
	err := w.fsolver.MarkFailed(d, &w.res)
	if err == nil {
		return nil
	}
	var inf *retrieval.InfeasibleError
	if errors.As(err, &inf) {
		*dropped = len(inf.Buckets)
		return nil
	}
	return err
}

// backoff sleeps the exponential backoff with jitter before retry round
// attempt (1-based).
func (w *worker) backoff(attempt int) {
	base := w.srv.opt.RetryBackoff
	shift := uint(attempt - 1)
	if shift > 6 {
		shift = 6
	}
	d := base << shift
	jitter := time.Duration(w.rng.Intn(int(base) + 1))
	time.Sleep(d + jitter)
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
	return w.applyLoadsFor(w.res.Schedule, busy, now)
}

// applyLoadsFor is applyLoads for an explicit schedule — the batch pool's
// phase C replays each slot's schedule through it in batch order.
//
//imflow:noalloc
func (w *worker) applyLoadsFor(sch *retrieval.Schedule, busy []cost.Micros, now cost.Micros) cost.Micros {
	var worst cost.Micros
	for j, k := range sch.Counts {
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
