// Package parallel implements an asynchronous multithreaded push-relabel
// maximum-flow solver in the style of Hong & He (IEEE TPDS 2011), the
// algorithm the paper parallelizes its integrated solver with.
//
// The solver uses no locks and no barriers: worker goroutines coordinate
// exclusively through atomic read-modify-write operations —
//
//   - per-arc residual capacities are decremented with CAS loops, so a
//     push can never overshoot an arc's capacity;
//   - per-vertex excesses are moved with atomic adds;
//   - a vertex is discharged by at most one goroutine at a time: the
//     work-queue membership flag is acquired with CAS when the vertex is
//     enqueued and released only after its discharge completes, and the
//     post-release excess re-check closes the lost-wakeup window;
//   - heights are written only by the goroutine currently discharging the
//     vertex and read (possibly stale) by everyone else; correctness
//     follows Hong & He's discipline of pushing only toward the
//     lowest-height residual neighbor and relabeling to exactly one above
//     it.
//
// Like practical sequential implementations (and unlike the textbook
// algorithm), the solver runs in two phases. Phase one computes a maximum
// *preflow* into the sink: a vertex whose height reaches n provably cannot
// reach the sink anymore and is frozen instead of being relabeled all the
// way past 2n — the parallel replacement for the global-relabeling
// heuristic the paper cites from [31]. Phase two converts the preflow into
// a flow by cancelling the stranded excess back along its own flow paths
// (sequential flow decomposition).
//
// Like the sequential engines, Run starts from the graph's current flow,
// which is what lets the integrated binary-capacity-scaling algorithm call
// it repeatedly while conserving flow between calls.
//
// The Solver fields annotated "(atomic)" are touched only through
// sync/atomic while workers may be live. The functions documented as
// quiescent touch them with plain loads and stores: they run strictly
// before the workers start (Run's preparation, Reset, exactHeights),
// after wg.Wait has quiesced them all (drainExcess, cancelCycle, Run's
// write-back), or while holding the global-relabel write lock, which
// excludes every discharge (globalRelabel). `go test -race` over this
// package and its retrieval callers checks the discipline.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
)

// Solver is a reusable parallel push-relabel engine bound to one graph.
type Solver struct {
	g       *flowgraph.Graph
	threads int
	name    string

	res     []int64 // residual capacity per arc (atomic)
	excess  []int64 // per-vertex excess (atomic)
	height  []int64 // per-vertex height (atomic)
	inQueue []int32 // 1 from enqueue until discharge completes (atomic)

	// Sequential-phase scratch, reused across runs. Only touched in the
	// quiescent sections.
	dist   []int64 // globalRelabel height recomputation
	bfsq   []int32 // BFS queues of exactHeights/bfsHeights
	onPath []int32 // drainExcess path membership
	pathV  []int32 // drainExcess vertex path
	pathA  []int32 // drainExcess arc path

	queue   chan int32
	pending atomic.Int64
	done    chan struct{}

	// Periodic global relabeling: workers hold gr.RLock() while
	// discharging; when grWork crosses the threshold one worker takes the
	// write lock (quiescing the others' discharges), recomputes exact
	// heights, and resumes. This is the synchronized stand-in for the
	// non-blocking global relabeling heuristic of Hong & He — rare, and
	// the only non-lock-free coordination in the solver.
	gr          sync.RWMutex
	grWork      atomic.Int64
	grThreshold int64

	pushes   atomic.Int64
	relabels atomic.Int64

	metrics maxflow.Metrics
}

// New returns a solver using the given number of worker goroutines
// (minimum 1).
func New(g *flowgraph.Graph, threads int) *Solver {
	if threads < 1 {
		threads = 1
	}
	return &Solver{
		g:       g,
		threads: threads,
		name:    fmt.Sprintf("push-relabel-parallel(%d)", threads),
		excess:  make([]int64, g.N),
		height:  make([]int64, g.N),
		inQueue: make([]int32, g.N),
	}
}

// Name implements maxflow.Engine. The string is precomputed so the hot
// solve path never formats.
func (s *Solver) Name() string { return s.name }

// Reset implements maxflow.Engine: re-sync the atomic arrays with the
// (possibly rebuilt) graph. Run re-derives all per-run state. Reset is
// quiescent: it runs strictly between Runs, with no workers live.
//
// Amortized: (re)sizes engine-owned scratch that is reused across solves.
//
//imflow:allocok
func (s *Solver) Reset() {
	if cap(s.excess) < s.g.N {
		s.excess = make([]int64, s.g.N)
		s.height = make([]int64, s.g.N)
		s.inQueue = make([]int32, s.g.N)
	}
	s.excess = s.excess[:s.g.N]
	s.height = s.height[:s.g.N]
	s.inQueue = s.inQueue[:s.g.N]
}

// Metrics implements maxflow.Engine.
func (s *Solver) Metrics() *maxflow.Metrics { return &s.metrics }

// Threads returns the worker count.
func (s *Solver) Threads() int { return s.threads }

// Run augments the graph's current flow to a maximum s-t flow and returns
// its value. The CSR index is read-only while the workers run.
//
// Run touches the atomic arrays plainly only in its sequential sections:
// the preparation before any worker goroutine starts and the write-back
// after wg.Wait has quiesced them all.
//
// Per-solve scratch is engine-owned and amortized across reuse.
//
// The arc-level flow assignment is racy by design, so two runs on one
// graph may route the flow differently; the returned flow value is
// canonical and audited against the sequential engines.
//
//imflow:allocok
func (s *Solver) Run(src, sink int) int64 {
	g := s.g
	n := g.N
	if len(s.excess) < n {
		s.excess = make([]int64, n)
		s.height = make([]int64, n)
		s.inQueue = make([]int32, n)
	}
	// --- Sequential preparation (no concurrency yet). ---
	if cap(s.res) < g.M() {
		s.res = make([]int64, g.M())
	}
	s.res = s.res[:g.M()]
	for a := 0; a < g.M(); a++ {
		s.res[a] = g.Cap[a] - g.Flow[a]
	}
	for v := 0; v < n; v++ {
		s.excess[v] = 0
		s.inQueue[v] = 0
	}
	// Saturate residual source arcs, creating the initial excesses.
	for _, a := range g.ArcIdx[g.Start[src]:g.Start[src+1]] {
		if delta := s.res[a]; delta > 0 {
			s.res[a] = 0
			s.res[a^1] += delta
			s.excess[g.To[a]] += delta
		}
	}
	s.exactHeights(src, sink)

	// The work channel drains completely before the workers exit (pending
	// only reaches zero once every sent vertex has been popped), so it can
	// be reused whenever its capacity still fits the graph.
	if cap(s.queue) < n+s.threads {
		s.queue = make(chan int32, n+s.threads)
	}
	s.done = make(chan struct{})
	s.pending.Store(0)
	s.grWork.Store(0)
	s.grThreshold = int64(n)
	if s.grThreshold < 64 {
		s.grThreshold = 64
	}
	active := 0
	for v := 0; v < n; v++ {
		if v != src && v != sink && s.excess[v] > 0 && s.height[v] < int64(n) {
			s.inQueue[v] = 1
			s.pending.Add(1)
			s.queue <- int32(v)
			active++
		}
	}
	if active > 0 {
		// --- Phase one: concurrent maximum preflow. ---
		var wg sync.WaitGroup
		for w := 0; w < s.threads; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.worker(src, sink)
			}()
		}
		wg.Wait()
	}
	// --- Phase two: sequential preflow-to-flow conversion. ---
	s.drainExcess(src, sink)
	// --- Write the residuals back as flows. ---
	for a := 0; a < g.M(); a += 2 {
		f := g.Cap[a] - s.res[a]
		g.Flow[a] = f
		g.Flow[a^1] = -f
	}
	s.metrics.Pushes += s.pushes.Swap(0)
	s.metrics.Relabels += s.relabels.Swap(0)
	return -g.Outflow(sink)
}

// worker pops vertices off the shared queue and discharges them until the
// outstanding-work counter hits zero. The membership flag is released only
// after the discharge, so each vertex has at most one discharger at any
// moment.
func (s *Solver) worker(src, sink int) {
	for {
		select {
		case v := <-s.queue:
			if s.grWork.Load() >= s.grThreshold {
				s.globalRelabel(src, sink)
			}
			s.gr.RLock()
			s.discharge(int(v), src, sink)
			s.gr.RUnlock()
			atomic.StoreInt32(&s.inQueue[v], 0)
			// A concurrent push may have re-activated v after the
			// discharge drained it; re-check after releasing the flag so
			// no wakeup is lost.
			if atomic.LoadInt64(&s.excess[v]) > 0 && atomic.LoadInt64(&s.height[v]) < int64(s.g.N) {
				s.tryEnqueue(int(v), src, sink)
			}
			if s.pending.Add(-1) == 0 {
				close(s.done)
				return
			}
		case <-s.done:
			return
		}
	}
}

// tryEnqueue inserts v into the work queue unless it is already there (or
// being discharged), or frozen at height >= n, or an endpoint.
func (s *Solver) tryEnqueue(v, src, sink int) {
	if v == src || v == sink || atomic.LoadInt64(&s.height[v]) >= int64(s.g.N) {
		return
	}
	if atomic.CompareAndSwapInt32(&s.inQueue[v], 0, 1) {
		s.pending.Add(1)
		s.queue <- int32(v)
	}
}

// discharge drains v's excess following Hong & He's lock-free discipline:
// find the lowest-height residual neighbor; if v is higher, push to it
// (a CAS on the arc residual bounds the trial push), otherwise relabel v
// to one above it. Discharge stops when the excess is gone or v's height
// reaches n (frozen: its excess can no longer reach the sink and phase two
// will return it to the source).
func (s *Solver) discharge(v, src, sink int) {
	g := s.g
	n := int64(g.N)
	for atomic.LoadInt64(&s.excess[v]) > 0 {
		if atomic.LoadInt64(&s.height[v]) >= n {
			return // frozen
		}
		// Find the lowest residual neighbor. Residuals of v's outgoing
		// arcs are only ever *decreased* by v's own discharger (concurrent
		// pushes into v increase them), so arcs observed here cannot
		// vanish before our push attempt.
		minH := int64(1) << 62
		minArc := int32(-1)
		for _, a := range g.ArcIdx[g.Start[v]:g.Start[v+1]] {
			if atomic.LoadInt64(&s.res[a]) <= 0 {
				continue
			}
			if h := atomic.LoadInt64(&s.height[g.To[a]]); h < minH {
				minH = h
				minArc = a
			}
		}
		if minArc < 0 {
			// Unreachable once single-ownership holds (excess implies a
			// residual arc, published before the excess). Yield defensively
			// rather than spin.
			runtime.Gosched()
			continue
		}
		h := atomic.LoadInt64(&s.height[v])
		if h > minH {
			// Push: bound the trial amount by a CAS on the arc residual so
			// concurrent pushes over the same arc cannot overshoot.
			want := atomic.LoadInt64(&s.excess[v])
			if want <= 0 {
				return
			}
			cur := atomic.LoadInt64(&s.res[minArc])
			if cur <= 0 {
				continue
			}
			delta := want
			if cur < delta {
				delta = cur
			}
			if !atomic.CompareAndSwapInt64(&s.res[minArc], cur, cur-delta) {
				continue // residual moved under us; rescan
			}
			atomic.AddInt64(&s.res[minArc^1], delta)
			atomic.AddInt64(&s.excess[v], -delta)
			atomic.AddInt64(&s.excess[g.To[minArc]], delta)
			s.pushes.Add(1)
			s.tryEnqueue(int(g.To[minArc]), src, sink)
		} else {
			// Relabel to one above the lowest neighbor (or freeze at n).
			newH := minH + 1
			if newH > n {
				newH = n
			}
			atomic.StoreInt64(&s.height[v], newH)
			s.relabels.Add(1)
			s.grWork.Add(1)
		}
	}
}

// drainExcess converts the maximum preflow into a maximum flow: all excess
// stranded at frozen vertices is cancelled back along incoming flow paths
// to the source (flow decomposition). Quiescent: runs sequentially after
// the workers have quiesced.
func (s *Solver) drainExcess(src, sink int) {
	g := s.g
	flowOn := func(a int32) int64 { return g.Cap[a] - s.res[a] }
	// DFS stack of (vertex, incoming arc used); cancel when the source is
	// reached, cancel cycles when a vertex repeats on the path. All three
	// path buffers are reused across runs.
	if cap(s.onPath) < g.N {
		s.onPath = make([]int32, g.N)
	}
	onPath := s.onPath[:g.N] // 1-based position on the current path, 0 = off
	for i := range onPath {
		onPath[i] = 0
	}
	for v := 0; v < g.N; v++ {
		if v == src || v == sink {
			continue
		}
		for s.excess[v] > 0 {
			// Walk backwards along arcs currently carrying flow into the
			// path head until we reach the source or close a cycle.
			pathV := append(s.pathV[:0], int32(v))
			pathA := append(s.pathA[:0], -1) // pathA[i]: forward arc carrying flow into pathV[i]
			cancelled := false
			onPath[v] = 1
			head := int32(v)
			for int(head) != src {
				var inArc int32 = -1
				for _, a := range g.ArcIdx[g.Start[head]:g.Start[head+1]] {
					// Arc a leaves head; its dual a^1 enters head. Flow into
					// head over the dual is positive iff flowOn(a^1) > 0.
					if flowOn(a^1) > 0 {
						inArc = a ^ 1
						break
					}
				}
				if inArc < 0 {
					// No incoming flow: impossible for a vertex with excess
					// in a preflow; fail loudly rather than loop.
					panic("parallel: stranded excess with no incoming flow")
				}
				u := g.To[inArc^1] // tail of the incoming arc
				if onPath[u] != 0 {
					// Cycle: cancel its bottleneck and restart the walk.
					s.cancelCycle(pathV, pathA, u, inArc)
					for _, pv := range pathV {
						onPath[pv] = 0
					}
					cancelled = true
					break
				}
				pathV = append(pathV, u)
				pathA = append(pathA, inArc)
				onPath[u] = int32(len(pathV))
				head = u
			}
			s.pathV, s.pathA = pathV[:0], pathA[:0]
			if cancelled {
				continue // cycle cancelled; retry
			}
			// Cancel min(excess, path bottleneck) along the whole path.
			delta := s.excess[v]
			for i := 1; i < len(pathA); i++ {
				if f := flowOn(pathA[i]); f < delta {
					delta = f
				}
			}
			for i := 1; i < len(pathA); i++ {
				a := pathA[i]
				s.res[a] += delta
				s.res[a^1] -= delta
			}
			s.excess[v] -= delta
			for _, pv := range pathV {
				onPath[pv] = 0
			}
		}
	}
}

// cancelCycle removes the flow cycle closed by arc inArc (which carries
// flow from u to the current path head). pathV[i] is on the path with
// onPath position i+1. Quiescent: runs only from drainExcess, after the
// workers have quiesced.
func (s *Solver) cancelCycle(pathV, pathA []int32, u, inArc int32) {
	g := s.g
	flowOn := func(a int32) int64 { return g.Cap[a] - s.res[a] }
	// The cycle consists of inArc (u -> head) plus the path arcs from u's
	// path position down to the head.
	start := 0
	for i, pv := range pathV {
		if pv == u {
			start = i
			break
		}
	}
	// Arcs on the cycle: pathA[start+1..] each carry flow from pathV[i]
	// into pathV[i-1]... pathA[i] carries flow into pathV[i-1]? No:
	// pathA[i] carries flow INTO pathV[i-1] from pathV[i]. The cycle is
	// u = pathV[last]... walk: arcs pathA[start+1..end] plus inArc.
	arcs := []int32{inArc}
	for i := start + 1; i < len(pathA); i++ {
		arcs = append(arcs, pathA[i])
	}
	delta := int64(1) << 62
	for _, a := range arcs {
		if f := flowOn(a); f < delta {
			delta = f
		}
	}
	for _, a := range arcs {
		s.res[a] += delta
		s.res[a^1] -= delta
	}
}

// globalRelabel quiesces the dischargers and recomputes exact heights.
// Heights are lower bounds on the residual distance to the sink under a
// valid labeling, so the recomputation never lowers a height; vertices the
// backward BFS does not reach are frozen at n in one step, which is what
// spares the algorithm the one-relabel-at-a-time herd climb.
//
// globalRelabel holds the gr write lock for its whole body, so the
// dischargers (which hold read locks) are quiesced while it runs.
func (s *Solver) globalRelabel(src, sink int) {
	s.gr.Lock()
	defer s.gr.Unlock()
	if s.grWork.Load() < s.grThreshold {
		return // another worker already relabeled while we waited
	}
	n := int64(s.g.N)
	old := s.height
	if cap(s.dist) < s.g.N {
		s.dist = make([]int64, s.g.N)
	}
	dist := s.dist[:s.g.N]
	for i := range dist {
		dist[i] = n
	}
	s.bfsHeights(dist, src, sink)
	for v := range dist {
		if dist[v] > old[v] {
			atomic.StoreInt64(&s.height[v], dist[v])
		}
	}
	s.grWork.Store(0)
	s.metrics.GlobalRelabels++
}

// bfsHeights fills dist with exact residual BFS distances to the sink
// (vertices not reached keep their preset value).
func (s *Solver) bfsHeights(dist []int64, src, sink int) {
	g := s.g
	n := int64(g.N)
	dist[sink] = 0
	q := append(s.bfsq[:0], int32(sink))
	for head := 0; head < len(q); head++ {
		v := q[head]
		for _, a := range g.ArcIdx[g.Start[v]:g.Start[v+1]] {
			u := g.To[a]
			if atomic.LoadInt64(&s.res[int(a)^1]) > 0 && dist[u] == n && int(u) != src && int(u) != sink {
				dist[u] = dist[v] + 1
				q = append(q, u)
			}
		}
	}
	s.bfsq = q
}

// exactHeights initializes heights to exact residual BFS distances to the
// sink; vertices that cannot reach the sink start frozen at n. Quiescent:
// runs in Run's sequential preparation, before any worker starts.
func (s *Solver) exactHeights(src, sink int) {
	g := s.g
	n := int64(g.N)
	for v := 0; v < g.N; v++ {
		s.height[v] = n
	}
	s.height[sink] = 0
	q := append(s.bfsq[:0], int32(sink))
	for head := 0; head < len(q); head++ {
		v := q[head]
		for _, a := range g.ArcIdx[g.Start[v]:g.Start[v+1]] {
			u := g.To[a]
			// residual arc u->v exists iff the dual arc has capacity left
			if s.res[a^1] > 0 && s.height[u] == n && int(u) != src && int(u) != sink {
				s.height[u] = s.height[v] + 1
				q = append(q, u)
			}
		}
	}
	s.bfsq = q
	s.height[src] = n
}
