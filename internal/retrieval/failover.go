// Failure-aware retrieval: disk masks, partial (degraded) solves, and
// in-place failover.
//
// A disk failure is one more capacity change of the network a solver
// already holds: mask the disk's slot, pin its sink capacity at zero, and
// zero the source arcs of the buckets it strands, so they leave the flow
// target. MarkFailed then re-runs the solver's own search on that
// network. The conserving binary solver starts it from the flow the last
// solve left: the drain before its first run (flowgraph.DrainExcess)
// cancels the failed disk's flow along with whatever else that run's
// capacities cut. The min-cut search starts again from t0, the trivial
// cut's bound under the new mask. The incremental walk solvers start their walk over.
// Because the search is the one every solve runs, a failure that strands
// buckets, and so may lower the optimum, needs no separate path (see
// DESIGN.md §10).
package retrieval

import (
	"errors"
	"fmt"
)

// ErrInfeasible is the sentinel wrapped by every infeasibility error in
// this package: a query (or part of one) that cannot be routed to any
// disk. Match with errors.Is; the concrete *InfeasibleError carries the
// stranded buckets when they are known.
var ErrInfeasible = errors.New("retrieval: query infeasible")

// InfeasibleError reports a degraded solve that could not retrieve every
// bucket: Buckets lists, in ascending order, exactly the buckets whose
// every replica is on a failed disk (the min-cut witness of the masked
// network — their source arcs are the only arcs a saturating cut can
// cross). A solver returning *InfeasibleError has still produced a valid
// partial schedule for all other buckets; callers decide whether partial
// retrieval is acceptable.
//
// The *InfeasibleError a reusable solver returns, Buckets included,
// belongs to the solver and is valid until the solver's next call, like
// res.Schedule: the steady-state degraded solve allocates nothing. Copy
// Buckets to keep it.
type InfeasibleError struct {
	Buckets []int // buckets with no live replica, ascending
}

// Error implements error.
func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("retrieval: %d bucket(s) %v have no live replica", len(e.Buckets), e.Buckets)
}

// Unwrap makes errors.Is(err, ErrInfeasible) hold.
func (e *InfeasibleError) Unwrap() error { return ErrInfeasible }

// DiskMask is the set of failed disks of a system, indexed by global disk
// ID. The zero value and nil both mean "every disk healthy". A DiskMask is
// not safe for concurrent mutation; the serving layer snapshots it under
// its shard lock.
type DiskMask struct {
	failed []bool
	count  int
}

// NewDiskMask returns an all-healthy mask over numDisks disks.
func NewDiskMask(numDisks int) *DiskMask {
	m := &DiskMask{}
	m.Reset(numDisks)
	return m
}

// Reset re-dimensions the mask to numDisks disks, all healthy, reusing the
// backing array when large enough.
// Amortized: reallocates only when the disk count grows.
//
//imflow:allocok
func (m *DiskMask) Reset(numDisks int) {
	if cap(m.failed) < numDisks {
		m.failed = make([]bool, numDisks)
	}
	m.failed = m.failed[:numDisks]
	for i := range m.failed {
		m.failed[i] = false
	}
	m.count = 0
}

// MarkFailed marks a disk failed and reports whether its state changed.
// Allocates only on the out-of-range panic path.
//
//imflow:allocok
func (m *DiskMask) MarkFailed(disk int) bool {
	if disk < 0 || disk >= len(m.failed) {
		panic(fmt.Sprintf("retrieval: DiskMask.MarkFailed(%d) outside %d disks", disk, len(m.failed)))
	}
	if m.failed[disk] {
		return false
	}
	m.failed[disk] = true
	m.count++
	return true
}

// Recover marks a disk healthy again and reports whether its state
// changed. A solver learns of a recovery only from the next
// SolveMaskedInto with the updated mask: MarkFailed only ever adds
// failures to the network it holds.
// Allocates only on the out-of-range panic path.
//
//imflow:allocok
func (m *DiskMask) Recover(disk int) bool {
	if disk < 0 || disk >= len(m.failed) {
		panic(fmt.Sprintf("retrieval: DiskMask.Recover(%d) outside %d disks", disk, len(m.failed)))
	}
	if !m.failed[disk] {
		return false
	}
	m.failed[disk] = false
	m.count--
	return true
}

// Failed reports whether a disk is failed. It is nil-safe and treats disks
// outside the mask's range as healthy, so a nil or short mask is simply
// "everything up".
func (m *DiskMask) Failed(disk int) bool {
	return m != nil && disk >= 0 && disk < len(m.failed) && m.failed[disk]
}

// FailedCount returns the number of failed disks (0 for a nil mask).
func (m *DiskMask) FailedCount() int {
	if m == nil {
		return 0
	}
	return m.count
}

// NumDisks returns the number of disks the mask covers.
func (m *DiskMask) NumDisks() int {
	if m == nil {
		return 0
	}
	return len(m.failed)
}

// FailedDisks appends the failed disk IDs, ascending, to dst.
func (m *DiskMask) FailedDisks(dst []int) []int {
	if m == nil {
		return dst
	}
	for d, f := range m.failed {
		if f {
			dst = append(dst, d)
		}
	}
	return dst
}

// CopyFrom makes m an independent copy of other (nil copies to
// all-healthy of size 0).
func (m *DiskMask) CopyFrom(other *DiskMask) {
	if other == nil {
		m.Reset(0)
		return
	}
	m.Reset(len(other.failed))
	copy(m.failed, other.failed)
	m.count = other.count
}

// FailoverSolver is a ReusableSolver that understands disk failures: it
// can solve a problem under a DiskMask (degraded solve with partial
// retrieval) and can absorb a single disk failure *in place* via
// MarkFailed, re-running its search on the network it already holds. The
// generalized integrated solvers (FFIncremental, PRIncremental, PRBinary)
// implement it; FFBasic does not (the basic problem has no failure model)
// and the Oracle offers the one-shot SolveMasked instead.
type FailoverSolver interface {
	ReusableSolver

	// SolveMaskedInto is SolveInto on the masked problem: failed disks
	// carry no flow, and buckets whose every replica is failed are dropped
	// from the flow target. When buckets are dropped the returned error is
	// an *InfeasibleError naming them and res still holds the valid
	// partial schedule (dropped buckets read -1). A nil mask is a normal
	// solve.
	SolveMaskedInto(p *Problem, mask *DiskMask, res *Result) error

	// MarkFailed fails one more disk of the problem last solved by this
	// solver and re-solves into res: it masks the disk in the network the
	// solver holds, drops the buckets that lose their last live replica,
	// and runs the solver's search again. The conserving binary solver
	// starts that search from the flow the previous solve left, less the
	// flow through the failed disk. The response time equals a fresh
	// SolveMaskedInto's under the accumulated mask, also when the failure
	// strands buckets and the optimum falls. res.Stats is reset, so its
	// counters measure the failover alone. MarkFailed requires the
	// previous solve on this solver to have succeeded (an *InfeasibleError
	// counts as success); masking a disk that is already failed or holds
	// no replica of the query leaves the network as it is.
	MarkFailed(disk int, res *Result) error
}

// maskDisk fails one more disk of the network's problem in place: it
// masks the disk's slot, pins its sink capacity at zero, and drops the
// buckets left with no live replica from the flow target. The flow the
// disk and the dropped buckets carry is left for the next search to
// drain (PRBinary) or clear (the walk solvers' resetRun). A disk that is
// already masked or holds no replica of the query changes nothing.
// Runs at fault events, not per request; error exits allocate reports.
//
//imflow:allocok
func (net *network) maskDisk(disk int) error {
	if net.prob == nil {
		return errors.New("retrieval: MarkFailed before any solve")
	}
	if disk < 0 || disk >= len(net.prob.Disks) {
		return fmt.Errorf("retrieval: MarkFailed(%d) outside the %d-disk system", disk, len(net.prob.Disks))
	}
	net.warmOK = false
	if k := int(net.vtxSlot[disk]) - 1; k >= 0 && !net.maskedSlot[k] {
		net.maskedSlot[k] = true
		net.setCap(k, 0)
		net.refreshDead()
	}
	return nil
}

// refreshDead rescans the replica lists for buckets stranded by the
// current slot mask, zeroes their source arcs, and rebuilds net.dead in
// ascending order. A stranded bucket may still carry the unit its failed
// disk served, now over a zero-capacity source arc; the next search
// drains or clears it with the rest of that disk's flow.
func (net *network) refreshDead() {
	net.dead = net.dead[:0]
	for i, reps := range net.prob.Replicas {
		if !net.deadMark[i] {
			alive := false
			for _, d := range reps {
				if !net.maskedSlot[int(net.vtxSlot[d])-1] {
					alive = true
					break
				}
			}
			if !alive {
				net.deadMark[i] = true
				net.g.SetCap(net.srcArc[i], 0)
			}
		}
		if net.deadMark[i] {
			net.dead = append(net.dead, i)
		}
	}
}

// finishDegraded extracts the (possibly partial) schedule of the current
// flow into res and returns nil for a full retrieval or, for a partial
// one, the network's own *InfeasibleError, whose Buckets is the dead list
// itself: valid until the network's next solve (see InfeasibleError).
func (net *network) finishDegraded(res *Result) error {
	if res.Schedule == nil {
		//lint:ignore noalloc first call only; steady-state reuse passes a non-nil Schedule
		res.Schedule = &Schedule{}
	}
	if err := net.extractScheduleInto(net.prob, res.Schedule); err != nil {
		return err
	}
	// The solve completed cleanly, so the network (and its flow) may seed
	// the next solve's warm start. A partial retrieval still qualifies:
	// the flow is a valid maximal flow of the masked network, and the warm
	// signature includes the mask.
	net.warmOK = true
	if len(net.dead) == 0 {
		return nil
	}
	net.inf.Buckets = net.dead
	return &net.inf
}
