// Package retrieval implements the paper's contribution: optimal response
// time retrieval of replicated data, solved with integrated maximum-flow
// algorithms that conserve flow across the capacity adjustments of the
// search (Algorithms 1-6 of the paper), plus the black-box baselines of
// the prior work they are compared against.
//
//imflow:floatfree
package retrieval

import (
	"fmt"
	"sort"

	"imflow/internal/cost"
	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
)

// DiskParams are the per-disk scheduling parameters of Table I: C_j (the
// average retrieval cost of a single bucket), D_j (the network delay to the
// disk's site), and X_j (the time until the disk becomes idle).
type DiskParams struct {
	Service cost.Micros // C_j, must be positive
	Delay   cost.Micros // D_j
	Load    cost.Micros // X_j
}

// Finish returns the completion time of this disk retrieving k blocks.
func (d DiskParams) Finish(k int64) cost.Micros {
	return cost.DiskFinish(d.Delay, d.Load, d.Service, k)
}

// Problem is one instance of the generalized optimal response time
// retrieval problem: a query (one replica list per requested bucket) over a
// system of disks.
type Problem struct {
	// Disks holds the parameters of every disk in the system, indexed by
	// global disk ID.
	Disks []DiskParams
	// Replicas[i] lists the disks storing a copy of the i-th requested
	// bucket. Every bucket must have at least one replica.
	Replicas [][]int
}

// QuerySize returns |Q|, the number of requested buckets.
func (p *Problem) QuerySize() int { return len(p.Replicas) }

// Validate checks that the problem is well-formed.
// Allocates only on the validation-failure exit; the healthy path is free.
//
//imflow:allocok
func (p *Problem) Validate() error {
	if len(p.Replicas) == 0 {
		return fmt.Errorf("retrieval: empty query")
	}
	for j, d := range p.Disks {
		if d.Service <= 0 {
			return fmt.Errorf("retrieval: disk %d has non-positive service time", j)
		}
		if d.Delay < 0 || d.Load < 0 {
			return fmt.Errorf("retrieval: disk %d has negative delay or load", j)
		}
		// D_j + X_j must stay on the time axis: every capacity and finish
		// computation starts from this sum, and admitting a wrapping pair
		// here would make each of them silently saturate.
		//lint:ignore satarith Load is non-negative (checked above), so Max-Load cannot wrap
		if d.Delay > cost.Max-d.Load {
			return fmt.Errorf("retrieval: disk %d delay+load exceeds the time axis", j)
		}
		// A disk whose first block saturates the clock can never serve
		// anything: cost.Max doubles as the "no candidate" sentinel in
		// incrementMinCost, so such disks must not reach the solvers.
		if cost.DiskFinish(d.Delay, d.Load, d.Service, 1) == cost.Max {
			return fmt.Errorf("retrieval: disk %d cannot finish one block within the time axis", j)
		}
	}
	for i, reps := range p.Replicas {
		if len(reps) == 0 {
			return fmt.Errorf("retrieval: bucket %d has no replicas", i)
		}
		// Quadratic duplicate scan: replica lists are short (the replication
		// factor), and avoiding the map keeps Validate allocation-free on
		// the hot SolveInto path.
		for ri, d := range reps {
			if d < 0 || d >= len(p.Disks) {
				return fmt.Errorf("retrieval: bucket %d replica on unknown disk %d", i, d)
			}
			for _, e := range reps[:ri] {
				if e == d {
					return fmt.Errorf("retrieval: bucket %d lists disk %d twice", i, d)
				}
			}
		}
	}
	return nil
}

// Schedule is a retrieval decision: which replica serves each bucket.
type Schedule struct {
	// Assignment[i] is the global disk ID serving bucket i of the query.
	// Degraded (masked) solves record -1 for buckets whose every replica
	// is on a failed disk; see FailoverSolver and InfeasibleError.
	Assignment []int
	// Counts[j] is the number of buckets assigned to global disk j.
	Counts []int64
	// ResponseTime is the query's response time under this schedule:
	// max_j Finish_j(Counts[j]) over disks with Counts[j] > 0.
	ResponseTime cost.Micros
}

// Makespan recomputes the response time of an assignment from scratch.
// Buckets marked -1 (dropped by a degraded solve) contribute nothing.
func (p *Problem) Makespan(assignment []int) cost.Micros {
	counts := make([]int64, len(p.Disks))
	for _, d := range assignment {
		if d < 0 {
			continue
		}
		counts[d]++
	}
	var worst cost.Micros
	for j, k := range counts {
		if k == 0 {
			continue
		}
		if f := p.Disks[j].Finish(k); f > worst {
			worst = f
		}
	}
	return worst
}

// ValidateSchedule checks that a schedule solves the problem: every bucket
// is assigned to one of its replicas, the per-disk counts match, and the
// recorded response time equals the recomputed makespan.
func (p *Problem) ValidateSchedule(s *Schedule) error {
	if len(s.Assignment) != len(p.Replicas) {
		return fmt.Errorf("retrieval: schedule covers %d of %d buckets", len(s.Assignment), len(p.Replicas))
	}
	counts := make([]int64, len(p.Disks))
	for i, d := range s.Assignment {
		ok := false
		for _, r := range p.Replicas[i] {
			if r == d {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("retrieval: bucket %d assigned to non-replica disk %d", i, d)
		}
		counts[d]++
	}
	for j := range counts {
		if counts[j] != s.Counts[j] {
			return fmt.Errorf("retrieval: disk %d count %d, schedule says %d", j, counts[j], s.Counts[j])
		}
	}
	if got := p.Makespan(s.Assignment); got != s.ResponseTime {
		return fmt.Errorf("retrieval: recorded response time %v, recomputed %v", s.ResponseTime, got)
	}
	return nil
}

// ValidatePartialSchedule checks a degraded schedule: every bucket in dead
// (ascending global bucket indices) must be unassigned (-1), every other
// bucket must be assigned to one of its replicas, the per-disk counts must
// match, and the recorded response time must equal the makespan of the
// retrieved buckets.
func (p *Problem) ValidatePartialSchedule(s *Schedule, dead []int) error {
	if len(s.Assignment) != len(p.Replicas) {
		return fmt.Errorf("retrieval: schedule covers %d of %d buckets", len(s.Assignment), len(p.Replicas))
	}
	isDead := make(map[int]bool, len(dead))
	for _, i := range dead {
		if i < 0 || i >= len(p.Replicas) {
			return fmt.Errorf("retrieval: dead bucket %d outside the query", i)
		}
		isDead[i] = true
	}
	counts := make([]int64, len(p.Disks))
	for i, d := range s.Assignment {
		if isDead[i] {
			if d != -1 {
				return fmt.Errorf("retrieval: dead bucket %d assigned to disk %d", i, d)
			}
			continue
		}
		if d < 0 {
			return fmt.Errorf("retrieval: live bucket %d left unassigned", i)
		}
		ok := false
		for _, r := range p.Replicas[i] {
			if r == d {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("retrieval: bucket %d assigned to non-replica disk %d", i, d)
		}
		counts[d]++
	}
	for j := range counts {
		if counts[j] != s.Counts[j] {
			return fmt.Errorf("retrieval: disk %d count %d, schedule says %d", j, counts[j], s.Counts[j])
		}
	}
	if got := p.Makespan(s.Assignment); got != s.ResponseTime {
		return fmt.Errorf("retrieval: recorded response time %v, recomputed %v", s.ResponseTime, got)
	}
	return nil
}

// Stats reports the work a solver performed for one Solve call.
type Stats struct {
	Engine      string          // underlying max-flow engine
	MaxflowRuns int             // complete max-flow invocations
	Increments  int             // IncrementMinCost steps
	BinarySteps int             // binary capacity-scaling iterations
	Flow        maxflow.Metrics // elementary operation counts
	// Warm marks a cross-query warm start: the problem matched the
	// previous build's structure signature, so the network (and, for the
	// conserving binary solver, the flow) was reused instead of rebuilt.
	Warm bool
}

// Result bundles a solver's output.
type Result struct {
	Schedule *Schedule
	Stats    Stats
}

// Solver computes an optimal response time schedule for a problem. Solve
// always returns a freshly allocated Result and Schedule, so results from
// successive calls can be held and compared side by side.
type Solver interface {
	Name() string
	Solve(p *Problem) (*Result, error)
}

// ReusableSolver is a Solver with a zero-steady-state-allocation entry
// point: SolveInto writes the result into res, reusing res.Schedule's
// backing arrays when present, and reuses the solver's cached network and
// engine. After the first call on a given problem shape, SolveInto performs
// no heap allocations (audit builds excepted). A ReusableSolver is NOT safe
// for concurrent use.
type ReusableSolver interface {
	Solver
	SolveInto(p *Problem, res *Result) error
}

// network is the max-flow representation of a problem (Figures 3-4 of the
// paper): source -> one vertex per bucket -> one vertex per participating
// disk -> sink. All arcs have capacity 1 except the disk->sink arcs, whose
// capacities the retrieval algorithms tune during the search.
type network struct {
	g    *flowgraph.Graph
	s, t int
	q    int // |Q|

	diskIDs []int        // participating disks (global IDs), in first-use order
	diskVtx []int        // diskVtx[k]: vertex of participating disk k
	params  []DiskParams // params[k]
	inDeg   []int64      // replica count per participating disk
	diskArc []int        // arc disk->sink per participating disk
	caps    []int64      // current disk->sink capacities (mirror of the graph)
	srcArc  []int        // arc source->bucket per bucket
	vtxSlot []int32      // scratch: slot+1 per global disk ID, 0 = not seen

	// Degraded-mode state (see failover.go). A masked slot's sink capacity
	// is pinned at zero and the slot is excluded from capsForTime,
	// incrementMinCost, candidate enumeration, and the binary bracket; a
	// dead bucket (every replica masked) has its source arc capacity zeroed
	// so the flow target shrinks to the live buckets.
	maskedSlot []bool          // maskedSlot[k]: participating disk k is failed
	deadMark   []bool          // deadMark[i]: bucket i has every replica failed
	dead       []int           // dead buckets, ascending
	inf        InfeasibleError // finishDegraded's report; Buckets aliases dead
	prob       *Problem        // problem of the last solve (MarkFailed re-solves it)

	// Cross-query warm-start state (see warm.go): the flattened replica
	// structure of the last build, and whether the last solve completed
	// cleanly enough for its network (and flow) to seed the next.
	sigFlat []int32
	warmOK  bool
}

// grow returns s resized to n elements, reallocating only when the backing
// array is too small. Contents are unspecified; callers overwrite.
// Amortized: reallocates only when the backing array must grow.
//
//imflow:allocok
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// buildNetwork constructs the flow network of a problem. Only disks holding
// at least one replica of the query participate; the rest cannot carry
// flow.
func buildNetwork(p *Problem) *network {
	net := &network{}
	net.rebuild(p)
	return net
}

// rebuild reconstructs the network for p in place, reusing every backing
// array from previous builds (including the graph's). After the first call
// on a given problem shape, rebuild performs no allocations. The graph
// comes back with zero flow everywhere and zero disk->sink capacities.
func (net *network) rebuild(p *Problem) {
	net.rebuildMasked(p, nil)
}

// rebuildMasked is rebuild under a disk mask: failed disks still occupy a
// network slot (so arc indices match the unmasked build) but are marked
// masked, and buckets whose every replica is failed get a zero-capacity
// source arc so they drop out of the flow target. A nil mask builds the
// ordinary healthy network.
// Amortized per the doc above: steady-state rebuilds reuse every array.
//
//imflow:allocok
func (net *network) rebuildMasked(p *Problem, mask *DiskMask) {
	net.warmOK = false
	q := len(p.Replicas)
	// First pass: discover participating disks. Global disk IDs are dense
	// (indices into p.Disks), so a slice stands in for the map.
	net.vtxSlot = grow(net.vtxSlot, len(p.Disks))
	for i := range net.vtxSlot {
		net.vtxSlot[i] = 0
	}
	diskIDs := net.diskIDs[:0]
	for _, reps := range p.Replicas {
		for _, d := range reps {
			if net.vtxSlot[d] == 0 {
				diskIDs = append(diskIDs, d)
				net.vtxSlot[d] = int32(len(diskIDs))
			}
		}
	}
	net.diskIDs = diskIDs
	nd := len(diskIDs)
	// Vertices: 0 = source, 1..q = buckets, q+1..q+nd = disks, q+nd+1 = sink.
	n := q + nd + 2
	if net.g == nil {
		net.g = flowgraph.New(n)
	} else {
		net.g.Resize(n)
	}
	g := net.g
	net.s, net.t, net.q = 0, n-1, q
	net.diskVtx = grow(net.diskVtx, nd)
	net.params = grow(net.params, nd)
	net.inDeg = grow(net.inDeg, nd)
	net.diskArc = grow(net.diskArc, nd)
	net.caps = grow(net.caps, nd)
	net.srcArc = grow(net.srcArc, q)
	net.maskedSlot = grow(net.maskedSlot, nd)
	net.deadMark = grow(net.deadMark, q)
	net.dead = grow(net.dead, q)[:0]
	for k, d := range diskIDs {
		net.diskVtx[k] = q + 1 + k
		net.params[k] = p.Disks[d]
		net.inDeg[k] = 0
		net.maskedSlot[k] = mask.Failed(d)
	}
	for i, reps := range p.Replicas {
		alive := false
		for _, d := range reps {
			if !mask.Failed(d) {
				alive = true
				break
			}
		}
		net.deadMark[i] = !alive
		srcCap := int64(1)
		if !alive {
			net.dead = append(net.dead, i)
			srcCap = 0
		}
		net.srcArc[i] = g.AddEdge(net.s, 1+i, srcCap)
		for _, d := range reps {
			k := int(net.vtxSlot[d]) - 1
			g.AddEdge(1+i, net.diskVtx[k], 1)
			net.inDeg[k]++
		}
	}
	for k := range diskIDs {
		net.diskArc[k] = g.AddEdge(net.diskVtx[k], net.t, 0)
		net.caps[k] = 0
	}
	net.prob = p
	net.recordSignature(p)
}

// target returns the flow value a feasible degraded solve must reach: the
// number of buckets with at least one live replica.
func (net *network) target() int64 { return int64(net.q - len(net.dead)) }

// setCap updates participating disk k's sink-arc capacity.
func (net *network) setCap(k int, c int64) {
	net.caps[k] = c
	net.g.SetCap(net.diskArc[k], c)
}

// capsForTime sets every disk->sink capacity to the number of blocks the
// disk can complete by time t (clamped to its replica count, which never
// changes feasibility but keeps the numbers small). Masked disks stay at
// zero: a failed disk can complete nothing by any time.
func (net *network) capsForTime(t cost.Micros) {
	for k, dp := range net.params {
		if net.maskedSlot[k] {
			net.setCap(k, 0)
			continue
		}
		net.setCap(k, cost.BlocksWithin(dp.Delay, dp.Load, dp.Service, t, net.inDeg[k]))
	}
}

// bucketVertex returns the vertex of bucket i.
func (net *network) bucketVertex(i int) int { return 1 + i }

// extractSchedule reads the assignment off the saturated bucket->disk arcs
// of a |Q|-valued flow into a fresh Schedule.
func (net *network) extractSchedule(p *Problem) (*Schedule, error) {
	s := &Schedule{}
	if err := net.extractScheduleInto(p, s); err != nil {
		return nil, err
	}
	return s, nil
}

// extractScheduleInto is extractSchedule writing into an existing Schedule,
// reusing its backing arrays when they are large enough. Disk vertices are
// mapped back to global IDs arithmetically (vertex q+1+k is participating
// disk k), so no lookup structure is built.
func (net *network) extractScheduleInto(p *Problem, s *Schedule) error {
	g := net.g
	s.Assignment = grow(s.Assignment, net.q)
	s.Counts = grow(s.Counts, len(p.Disks))
	for j := range s.Counts {
		s.Counts[j] = 0
	}
	for i := 0; i < net.q; i++ {
		if net.deadMark[i] {
			s.Assignment[i] = -1 // every replica failed; dropped by this solve
			continue
		}
		v := net.bucketVertex(i)
		assigned := -1
		for a := g.Head[v]; a >= 0; a = g.Next[a] {
			if a%2 == 0 && g.Flow[a] > 0 { // forward bucket->disk arc carrying flow
				k := int(g.To[a]) - net.q - 1
				if k < 0 || k >= len(net.diskIDs) {
					//lint:ignore noalloc corrupt-flow invariant exit; never taken on a maximal flow
					return fmt.Errorf("retrieval: bucket %d flows to non-disk vertex %d", i, g.To[a])
				}
				assigned = net.diskIDs[k]
				break
			}
		}
		if assigned < 0 {
			//lint:ignore noalloc corrupt-flow invariant exit; never taken on a maximal flow
			return fmt.Errorf("retrieval: bucket %d unassigned (flow not maximal?)", i)
		}
		s.Assignment[i] = assigned
		s.Counts[assigned]++
	}
	// Makespan from the counts we already have (p.Makespan would allocate a
	// fresh counts array).
	var worst cost.Micros
	for j, k := range s.Counts {
		if k == 0 {
			continue
		}
		if f := p.Disks[j].Finish(k); f > worst {
			worst = f
		}
	}
	s.ResponseTime = worst
	return nil
}

// incrementState tracks the live disk-edge set E of Algorithm 3. Retired
// edges (capacity at the replica count, so the disk can never serve more
// buckets) are removed so the total number of increment steps stays
// O(c * |Q|).
type incrementState struct {
	active []int // indices into net.diskIDs still in E
}

func newIncrementState(net *network) *incrementState {
	st := &incrementState{}
	st.reset(net)
	return st
}

// reset refills the live edge set with every participating disk that is
// not masked, reusing the backing array across solves. A masked disk must
// never enter E: incrementMinCost would raise its capacity and route flow
// through a failed disk.
func (st *incrementState) reset(net *network) {
	st.active = grow(st.active, len(net.diskIDs))[:0]
	for k := range net.diskIDs {
		if net.maskedSlot[k] {
			continue
		}
		st.active = append(st.active, k)
	}
}

// incrementMinCost is Algorithm 3: retire saturated disk edges, find the
// minimum next-unit completion cost D + X + (cap+1)*C over the remaining
// edges, and raise the capacity of every edge achieving it. It returns the
// threshold cost, or cost.Max when no edge remains.
func (st *incrementState) incrementMinCost(net *network) cost.Micros {
	minCost := cost.Max
	live := st.active[:0]
	for _, k := range st.active {
		if net.inDeg[k] <= net.caps[k] {
			continue // retire: the disk cannot serve more than its replicas
		}
		//lint:ignore noalloc appends into st.active's own backing array; the live set only shrinks
		live = append(live, k)
		if c := net.params[k].Finish(net.caps[k] + 1); c < minCost {
			minCost = c
		}
	}
	st.active = live
	if minCost == cost.Max {
		return minCost
	}
	for _, k := range st.active {
		if net.params[k].Finish(net.caps[k]+1) == minCost {
			net.setCap(k, net.caps[k]+1)
		}
	}
	return minCost
}

// candidateTimes enumerates every possible query completion time
// D_j + X_j + k*C_j (k up to the disk's replica count) in increasing
// order, skipping masked disks. The optimal response time is always one
// of these.
func (net *network) candidateTimes() []cost.Micros {
	var out []cost.Micros
	for k, dp := range net.params {
		if net.maskedSlot[k] {
			continue
		}
		lim := net.inDeg[k]
		if lim > int64(net.q) {
			lim = int64(net.q)
		}
		for b := int64(1); b <= lim; b++ {
			out = append(out, dp.Finish(b))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// dedupe
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}
