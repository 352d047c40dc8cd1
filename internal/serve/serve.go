// Package serve is the concurrent serving layer: it turns the per-query
// zero-reallocation solve path (retrieval.ReusableSolver.SolveInto) into
// sustained throughput for a stream of retrieval queries over one shared
// storage system.
//
// The design is sharded. Each worker owns a *pinned* reusable solver — no
// sync.Pool, so the steady-state zero-allocation guarantee of the solve
// path survives under concurrency — plus a pinned Problem and Result whose
// backing arrays converge to the workload's peak shape and are then reused
// forever. Workers pull queries from bounded per-shard queues and coalesce
// whatever is queued (up to Options.Batch) into one admission batch: one
// load-state snapshot, one in-place Problem rebuild per query, one
// write-back of the induced load.
//
// The per-disk load state X_j is shared across all shards: after each
// assignment the serving worker folds the blocks it scheduled into the
// disks' busy horizons, so successive queries see the loads their
// predecessors induced — the online form of the paper's
// T_j = D_j + X_j + k_j*C_j model. Under concurrency a worker solves
// against a snapshot that may be a batch behind its peers; the horizons
// themselves are never lost (write-back is additive under the mutex). The
// deterministic single-shard mode removes even that slack: queries are
// served strictly in arrival order against the live state, with the query
// arrival instant as the clock, and produces bit-identical response times
// to replaying the stream through sim.Simulator.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"imflow/internal/cost"
	"imflow/internal/fault"
	"imflow/internal/retrieval"
	"imflow/internal/storage"
	"imflow/internal/threads"
)

// ErrDeadlineExceeded is the admission rejection: the query's Deadline
// elapsed before it could be enqueued (returned by Submit, wrapped) or
// before a worker picked it up (reported via Result.Rejected).
var ErrDeadlineExceeded = errors.New("serve: admission deadline exceeded")

// Query is one admission request: a dense sequence number (its slot in the
// results array), the virtual arrival instant (the deterministic-mode
// clock), and the per-bucket replica lists.
type Query struct {
	Seq      int
	Arrival  cost.Micros
	Replicas [][]int
	// Deadline, when positive, bounds the time from Submit to being
	// served: Submit fails with ErrDeadlineExceeded instead of blocking
	// past it on a full queue, and a worker that dequeues the query too
	// late rejects it (Result.Rejected) instead of serving it. A negative
	// Deadline means the budget was already spent before admission (a
	// propagated deadline that expired upstream): Submit rejects it
	// outright with ErrDeadlineExceeded instead of burning a batch slot
	// on dead work. In the concurrent mode the bounds are wall-clock; in
	// deterministic mode the age is model time (the serving clock minus
	// Arrival), so replay stays bit-identical to sim regardless of
	// wall-clock scheduling.
	Deadline time.Duration
	// Ctx, when non-nil, propagates the submitting client's cancellation
	// into the queue: a worker that dequeues a query whose Ctx is already
	// done rejects it (Result.Rejected, RejectCanceled) instead of
	// solving for a caller that has gone away. Concurrent mode only; the
	// deterministic mode ignores it (a wall-clock cancellation check
	// would make replay scheduling-dependent).
	Ctx context.Context

	submitted time.Time // stamped by Submit for the wall-clock latency
}

// RejectReason classifies why a query was rejected (Result.Rejected).
type RejectReason uint8

const (
	// RejectNone: the query was served.
	RejectNone RejectReason = iota
	// RejectDeadline: the Deadline elapsed while the query sat in the
	// queue (wall clock online, model clock in deterministic mode).
	RejectDeadline
	// RejectCanceled: the query's Ctx was canceled before pickup.
	RejectCanceled
)

// String implements fmt.Stringer.
func (r RejectReason) String() string {
	switch r {
	case RejectNone:
		return "none"
	case RejectDeadline:
		return "deadline"
	case RejectCanceled:
		return "canceled"
	}
	return fmt.Sprintf("RejectReason(%d)", uint8(r))
}

// Result is the outcome of one served query. Schedules are not retained:
// every worker reuses one Schedule's backing arrays across its whole
// stream (that is what keeps the path allocation-free), so only the
// scalar outcome survives. Install an Options.OnSchedule hook to observe
// the full assignment before the buffers are recycled.
type Result struct {
	Seq    int
	Worker int
	// ResponseTime is the model response: the slowest site-delayed
	// completion among the disks serving the query, measured from the
	// clock the query was scheduled at (arrival in deterministic mode,
	// wall admission time otherwise).
	ResponseTime cost.Micros
	// Finish is the absolute model instant the query completes.
	Finish cost.Micros
	// Latency is the wall-clock time from Submit to the decision being
	// applied: queueing plus batching plus the solve itself.
	Latency time.Duration
	// Rejected marks a query that was never served: its deadline passed
	// in the queue or its context was canceled before pickup. A disk
	// failure never rejects a query. Response fields are zero; Reason
	// says which of the two it was.
	Rejected bool
	// Reason classifies a rejection; RejectNone on served queries.
	Reason RejectReason
	// Dropped counts buckets this query could not retrieve because every
	// replica was on a failed disk (partial retrieval). The full dead
	// set is observable through OnSchedule: dropped buckets have
	// Assignment -1.
	Dropped int
	// Failovers counts in-place MarkFailed repairs performed for this
	// query after a disk failed between the solve and the write-back.
	Failovers int
}

// Options configure a Server.
type Options struct {
	// Workers is the shard count; each shard is one queue served by one
	// worker with a pinned solver. <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds each shard's admission queue; Submit blocks while
	// the target shard is full. <= 0 means 64.
	QueueDepth int
	// Batch caps how many queued queries a worker coalesces into one
	// admission batch (one load snapshot, one write-back). <= 0 means 16.
	Batch int
	// NewSolver builds each worker's pinned solver. nil means
	// retrieval.NewPRBinary. The factory must return a fresh solver per
	// call: workers never share one.
	NewSolver func() retrieval.ReusableSolver
	// Deterministic selects the single-shard testing mode: exactly one
	// worker, queries served strictly in submission order with the query
	// arrival as the clock and per-query (not per-batch) load feedback.
	// The response times are bit-identical to sim.Simulator replay.
	// Requires Workers <= 1.
	Deterministic bool
	// OnSchedule, when non-nil, is invoked synchronously by the serving
	// worker after every assignment, before the problem/schedule buffers
	// are reused. Implementations must copy anything they keep and must
	// tolerate concurrent calls from different workers. On degraded
	// (fault-injected) runs the schedule may be partial: dropped buckets
	// have Assignment -1, which is how per-bucket graceful-degradation
	// metrics are observed before the buffers are recycled.
	OnSchedule func(worker int, q *Query, p *retrieval.Problem, s *retrieval.Schedule)
	// OnResult, when non-nil, is invoked synchronously by the serving
	// worker after every terminal outcome — served, deadline-rejected,
	// or canceled — right after the result is recorded. It is the
	// completion signal a front end builds request/response plumbing
	// on: exactly one call per admitted query, from the worker
	// goroutine, so implementations must be fast, must tolerate
	// concurrent calls, and must not call back into the Server. Queries
	// drained unserved after a server-level failure get no callback;
	// watch Failed for that edge. Submit-time rejections (expired
	// deadline, cancellation while blocked on a full queue) report
	// through Submit's error instead.
	OnResult func(r Result)
	// Fault installs a chaos schedule (fault.Spec.Generate or a scripted
	// fault.Schedule) replayed against the serving clock: model
	// microseconds since Start in the online mode, query arrivals in
	// deterministic mode. Requires the workers' solvers to be
	// retrieval.FailoverSolvers (the default PRBinary is). An empty
	// schedule leaves every result bit-identical to a fault-free run.
	Fault *fault.Schedule
}

// FaultStats are the serving layer's graceful-degradation counters,
// snapshotted by Server.FaultStats.
type FaultStats struct {
	DegradedQueries int64 // queries served while at least one disk was failed
	DroppedBuckets  int64 // buckets lost to all-replicas-down (partial retrievals)
	Failovers       int64 // in-place MarkFailed repairs after mid-solve failures
	Retries         int64 // repair rounds that found a scheduled disk failed
	Rejected        int64 // queries rejected because their deadline passed
	Canceled        int64 // queries whose Ctx was canceled before pickup
}

// withDefaults normalizes the options.
func (o Options) withDefaults() (Options, error) {
	if o.Deterministic {
		if o.Workers > 1 {
			return o, fmt.Errorf("serve: deterministic mode is single-shard (got %d workers)", o.Workers)
		}
		o.Workers = 1
	}
	if o.Workers <= 0 {
		o.Workers = threads.Normalize(o.Workers)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Batch <= 0 {
		o.Batch = 16
	}
	if o.NewSolver == nil {
		o.NewSolver = func() retrieval.ReusableSolver { return retrieval.NewPRBinary() }
	}
	return o, nil
}

// Server is a concurrent sharded retrieval service over one storage
// system. The zero value is not usable; construct with New.
type Server struct {
	sys *storage.System
	opt Options

	// mu guards the shared online load state. The lockguard analyzer
	// enforces the annotations below mechanically.
	mu sync.Mutex
	// busyUntil is the absolute model instant each disk drains its
	// queue; guarded by mu.
	busyUntil []cost.Micros
	// clock is the deterministic mode's high-water arrival; guarded by mu.
	clock cost.Micros

	queues  []chan Query
	workers []*worker
	wg      sync.WaitGroup

	// results is written index-disjointly by workers (slot Seq), so it
	// needs no lock; Wait establishes the happens-before edge for readers.
	results []Result

	start   time.Time
	next    atomic.Uint64 // round-robin shard cursor
	started bool
	waited  bool
	stop    chan struct{} // closed by Wait; releases the cancel watcher
	// watcherDone, non-nil when Start installed a cancel watcher, is
	// closed when that watcher exits; Wait joins it before reading err.
	watcherDone chan struct{}

	failed atomic.Bool
	// failedCh is closed (once) when the server enters drain mode after a
	// worker error or cancellation; see Failed.
	failedCh chan struct{}
	errOnce  sync.Once
	// err is the first worker error; guarded by errOnce (written only
	// inside errOnce.Do, read only after wg.Wait).
	err error

	// Fault-injection state. Workers serve against per-batch snapshots
	// and use faultEpoch (bumped on every applied event or manual
	// injection) to detect mid-solve changes without taking the lock.
	//
	// fstate is the chaos replay cursor; guarded by mu.
	fstate *fault.State
	// health is the live failure mask; guarded by mu.
	health *retrieval.DiskMask
	// slow is the live per-disk C_j/D_j inflation; guarded by mu.
	slow       []int64
	faultOn    atomic.Bool // any chaos schedule or manual injection so far
	faultEpoch atomic.Uint64
	faultable  bool // every worker's solver is a FailoverSolver

	// Graceful-degradation counters (see FaultStats).
	nDegraded  atomic.Int64
	nDropped   atomic.Int64
	nFailovers atomic.Int64
	nRetries   atomic.Int64
	nRejected  atomic.Int64
	nCanceled  atomic.Int64

	// Solve-path counters (see SolveStats).
	nSolves atomic.Int64
	nWarm   atomic.Int64

	// afterSolve, when non-nil, runs before every mid-solve-failure
	// check of a fault-mode solve; in-package tests use it to inject a
	// failure in exactly that window.
	afterSolve func(w *worker, q *Query)
}

// SolveStats are the cross-query reuse counters: how many solver calls
// ran and how many of those warm-started on the previous build.
type SolveStats struct {
	Solves     int64 // solver invocations
	WarmSolves int64 // solver invocations that warm-started
}

// SolveStats snapshots the cross-query reuse counters.
func (s *Server) SolveStats() SolveStats {
	return SolveStats{
		Solves:     s.nSolves.Load(),
		WarmSolves: s.nWarm.Load(),
	}
}

// FaultStats snapshots the graceful-degradation counters.
func (s *Server) FaultStats() FaultStats {
	return FaultStats{
		DegradedQueries: s.nDegraded.Load(),
		DroppedBuckets:  s.nDropped.Load(),
		Failovers:       s.nFailovers.Load(),
		Retries:         s.nRetries.Load(),
		Rejected:        s.nRejected.Load(),
		Canceled:        s.nCanceled.Load(),
	}
}

// FailDisk manually injects a disk failure, as a chaos schedule's Fail
// event would. Safe to call concurrently with serving; queries already
// solved onto the disk are repaired in place before their write-back.
func (s *Server) FailDisk(disk int) error {
	if !s.faultable {
		return fmt.Errorf("serve: FailDisk needs failover-capable solvers (Options.NewSolver must build retrieval.FailoverSolvers)")
	}
	if disk < 0 || disk >= s.sys.NumDisks() {
		return fmt.Errorf("serve: disk %d outside [0,%d)", disk, s.sys.NumDisks())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.health.MarkFailed(disk) {
		s.faultOn.Store(true)
		s.faultEpoch.Add(1)
	}
	return nil
}

// RecoverDisk manually recovers a disk failed by FailDisk (or by the
// chaos schedule).
func (s *Server) RecoverDisk(disk int) error {
	if disk < 0 || disk >= s.sys.NumDisks() {
		return fmt.Errorf("serve: disk %d outside [0,%d)", disk, s.sys.NumDisks())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.health.Recover(disk) {
		s.faultEpoch.Add(1)
	}
	return nil
}

// advanceFault replays chaos events up to the model instant now onto the
// live health mask and slowdown factors. Callers must hold mu.
//
//imflow:locked(mu)
func (s *Server) advanceFault(now cost.Micros) {
	if s.fstate == nil {
		return
	}
	events := s.fstate.Advance(now)
	for _, e := range events {
		switch e.Kind {
		case fault.Fail:
			s.health.MarkFailed(e.Disk)
		case fault.Recover:
			s.health.Recover(e.Disk)
		case fault.SlowStart:
			s.slow[e.Disk] = e.Factor
		case fault.SlowEnd:
			s.slow[e.Disk] = 1
		}
	}
	if len(events) > 0 {
		s.faultEpoch.Add(uint64(len(events)))
	}
}

// New returns a server over sys sized for total queries (the dense Seq
// range [0, total)). Workers are not started until Start.
func New(sys *storage.System, total int, opt Options) (*Server, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if sys == nil || sys.NumDisks() == 0 {
		return nil, fmt.Errorf("serve: need a storage system with disks")
	}
	if total <= 0 {
		return nil, fmt.Errorf("serve: non-positive query capacity %d", total)
	}
	slow := make([]int64, sys.NumDisks())
	for j := range slow {
		slow[j] = 1
	}
	var fstate *fault.State
	if opt.Fault != nil {
		if opt.Fault.NumDisks != sys.NumDisks() {
			return nil, fmt.Errorf("serve: fault schedule covers %d disks, system has %d", opt.Fault.NumDisks, sys.NumDisks())
		}
		if err := opt.Fault.Validate(); err != nil {
			return nil, err
		}
		fstate = fault.NewState(opt.Fault)
	}
	s := &Server{
		sys:       sys,
		opt:       opt,
		busyUntil: make([]cost.Micros, sys.NumDisks()),
		results:   make([]Result, total),
		queues:    make([]chan Query, opt.Workers),
		health:    retrieval.NewDiskMask(sys.NumDisks()),
		slow:      slow,
		fstate:    fstate,
		stop:      make(chan struct{}),
		failedCh:  make(chan struct{}),
	}
	if fstate != nil {
		s.faultOn.Store(true)
	}
	for i := range s.queues {
		s.queues[i] = make(chan Query, opt.QueueDepth)
	}
	s.workers = make([]*worker, opt.Workers)
	s.faultable = true
	for i := range s.workers {
		s.workers[i] = s.newWorker(i)
		if s.workers[i].fsolver == nil {
			s.faultable = false
		}
	}
	if opt.Fault != nil && !s.faultable {
		return nil, fmt.Errorf("serve: fault injection needs failover-capable solvers (Options.NewSolver must build retrieval.FailoverSolvers)")
	}
	return s, nil
}

// Workers returns the shard count.
func (s *Server) Workers() int { return s.opt.Workers }

// Start launches the shard workers. It must be called exactly once. When
// ctx is cancellable, cancellation drains the server exactly like a
// worker failure: queued queries are released unserved, blocked
// submitters are unblocked, and Wait reports the cancellation cause.
func (s *Server) Start(ctx context.Context) {
	if s.started {
		panic("serve: Start called twice")
	}
	s.started = true
	s.start = time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil {
		s.watcherDone = make(chan struct{})
		go func() {
			defer close(s.watcherDone)
			select {
			case <-ctx.Done():
				s.fail(fmt.Errorf("serve: cancelled: %w", context.Cause(ctx)))
			case <-s.stop:
			}
		}()
	}
	for i, w := range s.workers {
		s.wg.Add(1)
		go func(w *worker, q chan Query) {
			defer s.wg.Done()
			w.loop(q)
		}(w, s.queues[i])
	}
}

// now returns the wall clock as model microseconds since Start: the
// admission horizon of the online path, read once per batch. The
// deterministic mode's clock is the query arrival instead.
func (s *Server) now() cost.Micros {
	return cost.Micros(time.Since(s.start) / time.Microsecond)
}

// Submit admits one query, routing it round-robin across the shards. It
// blocks while the target shard's queue is full — bounded by ctx
// cancellation and the query's Deadline — and returns an error for misuse
// (server not started, Seq outside the results range), cancellation, or a
// missed deadline.
func (s *Server) Submit(ctx context.Context, q Query) error {
	shard := int(s.next.Add(1)-1) % len(s.queues)
	return s.SubmitTo(ctx, shard, q)
}

// SubmitTo admits one query to a specific shard; tests use it to pin the
// shard-to-query mapping. It blocks while that shard's queue is full,
// subject to the same ctx/deadline bounds as Submit.
func (s *Server) SubmitTo(ctx context.Context, shard int, q Query) error {
	if !s.started {
		return fmt.Errorf("serve: Submit before Start")
	}
	if shard < 0 || shard >= len(s.queues) {
		return fmt.Errorf("serve: shard %d outside [0,%d)", shard, len(s.queues))
	}
	if q.Seq < 0 || q.Seq >= len(s.results) {
		return fmt.Errorf("serve: query seq %d outside the server's capacity %d", q.Seq, len(s.results))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// A negative deadline is a budget that expired before admission (the
	// upstream deadline propagated here already spent): reject now rather
	// than burn a batch slot on work nobody can use.
	if q.Deadline < 0 {
		s.nRejected.Add(1)
		return fmt.Errorf("serve: query %d: expired before admission: %w", q.Seq, ErrDeadlineExceeded)
	}
	q.submitted = time.Now()
	// Deterministic mode evaluates deadlines against the model clock at
	// serve time (rejectLateAt); a wall-clock admission timer here would
	// make replay scheduling-dependent, breaking bit-identity with sim.
	if q.Deadline > 0 && !s.opt.Deterministic {
		timer := time.NewTimer(q.Deadline)
		defer timer.Stop()
		select {
		case s.queues[shard] <- q:
			return nil
		case <-timer.C:
			s.nRejected.Add(1)
			return fmt.Errorf("serve: query %d: %w", q.Seq, ErrDeadlineExceeded)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case s.queues[shard] <- q:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Wait closes admission, drains the shards, and returns the results slice
// (indexed by Seq) together with the first worker error, if any. Queries
// admitted after a worker error are drained unserved and left zero-valued
// in the results.
func (s *Server) Wait() ([]Result, error) {
	if !s.started {
		return nil, fmt.Errorf("serve: Wait before Start")
	}
	if s.waited {
		return nil, fmt.Errorf("serve: Wait called twice")
	}
	s.waited = true
	for _, q := range s.queues {
		close(q)
	}
	s.wg.Wait()
	close(s.stop)
	if s.watcherDone != nil {
		// The cancel watcher may be mid-fail when a cancellation races
		// Wait; joining it orders its errOnce.Do before the read below.
		<-s.watcherDone
	}
	//lint:ignore lockguard wg.Wait and the watcher join above establish happens-before with every errOnce.Do writer
	return s.results, s.err
}

// fail records the first worker error and flips every worker into
// drain-only mode.
func (s *Server) fail(err error) {
	s.errOnce.Do(func() {
		s.err = err
		close(s.failedCh)
	})
	s.failed.Store(true)
}

// Failed returns a channel closed when the server enters drain mode (a
// worker error or a Start-context cancellation): queries already admitted
// may be drained unserved from that point, so callers waiting on
// Options.OnResult callbacks must also select on this channel. Wait
// reports the cause.
func (s *Server) Failed() <-chan struct{} { return s.failedCh }

// QueueDepths appends the current per-shard admission queue depths to
// into (pass nil, or a reused buffer, which is truncated first) and
// returns it. The depths are instantaneous — workers drain concurrently —
// and are meant for overload controllers and metrics, not for exact
// accounting.
func (s *Server) QueueDepths(into []int) []int {
	into = into[:0]
	for _, q := range s.queues {
		into = append(into, len(q))
	}
	return into
}

// Serve is the one-shot convenience: start a server over sys, admit the
// whole stream in order (Seq = slice index), and wait. The stream's
// Arrival fields drive the clock in deterministic mode and are carried
// through otherwise. Cancelling ctx drains the server mid-stream.
func Serve(ctx context.Context, sys *storage.System, stream []Query, opt Options) ([]Result, error) {
	s, err := New(sys, len(stream), opt)
	if err != nil {
		return nil, err
	}
	s.Start(ctx)
	for _, q := range stream {
		if err := s.Submit(ctx, q); err != nil {
			if s.failed.Load() {
				break // drain-on-cancel/failure: Wait reports the cause
			}
			return nil, err
		}
	}
	return s.Wait()
}
