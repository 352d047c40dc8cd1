package maxflow

import (
	"fmt"

	"imflow/internal/flowgraph"
)

// PushRelabel is a FIFO push-relabel engine (Goldberg & Tarjan) with the
// two practical heuristics recommended by Cherkassky & Goldberg and used by
// the paper's implementation:
//
//   - exact height initialization ("global relabeling"): heights start as
//     exact residual BFS distances to the sink and are recomputed
//     periodically, instead of the all-zero initialization of the
//     textbook algorithm;
//   - gap relabeling: when some height below n becomes unoccupied, every
//     vertex stranded above the gap is lifted past n at once, since it can
//     no longer reach the sink.
//
// Run augments the graph's *current* flow: it saturates the residual
// source arcs, turning the flow into a preflow, and discharges until no
// active vertex remains. Excess that cannot reach the sink drains back to
// the source, so the final state is always a feasible maximum flow — which
// is exactly what the integrated algorithms need between capacity updates.
type PushRelabel struct {
	g *flowgraph.Graph

	height  []int32
	excess  []int64
	curArc  []int32 // position into g.ArcIdx; v's range ends at g.Start[v+1]
	queue   []int32
	inQueue []bool
	hcount  []int32 // number of vertices at each height, for the gap heuristic
	bfsq    []int32 // scratch queue for globalRelabel, reused across runs

	// GlobalRelabelInterval is the number of relabel operations between
	// exact-height recomputations; 0 restores the default (the vertex
	// count). Set it to a negative value to disable periodic global
	// relabeling (the exact initialization still runs).
	GlobalRelabelInterval int

	metrics Metrics
}

// NewPushRelabel returns an engine bound to g.
func NewPushRelabel(g *flowgraph.Graph) *PushRelabel {
	return &PushRelabel{
		g:       g,
		height:  make([]int32, g.N),
		excess:  make([]int64, g.N),
		curArc:  make([]int32, g.N),
		inQueue: make([]bool, g.N),
		hcount:  make([]int32, 2*g.N+1),
	}
}

// Name implements Engine.
func (pr *PushRelabel) Name() string { return "push-relabel-fifo" }

// Metrics implements Engine.
func (pr *PushRelabel) Metrics() *Metrics { return &pr.metrics }

// Reset implements Engine: re-sync scratch with the (possibly rebuilt)
// graph. Run re-derives all per-run state, so only sizing matters here.
// Amortized: (re)sizes engine-owned scratch that is reused across solves.
//
//imflow:allocok
func (pr *PushRelabel) Reset() {
	pr.ensureSize(pr.g.N)
	pr.queue = pr.queue[:0]
}

// Run augments the current flow to a maximum s-t flow and returns its
// value. It compacts the graph first (a no-op on a frozen graph), so
// every adjacency scan reads the contiguous CSR ranges.
// Per-solve scratch is engine-owned and amortized across reuse.
//
//imflow:allocok
//imflow:det
func (pr *PushRelabel) Run(s, t int) int64 {
	g := pr.g
	g.Compact()
	n := g.N
	pr.ensureSize(n)
	for i := 0; i < n; i++ {
		pr.excess[i] = 0
		pr.inQueue[i] = false
	}
	pr.queue = pr.queue[:0]

	// Saturate residual source arcs: the current flow plus these pushes is
	// a preflow whose excesses sit at the source's neighbors.
	for _, a := range g.ArcIdx[g.Start[s]:g.Start[s+1]] {
		if delta := g.Residual(int(a)); delta > 0 {
			g.Push(int(a), delta)
			pr.excess[g.To[a]] += delta
			pr.metrics.Pushes++
		}
	}
	pr.globalRelabel(s, t)

	interval := pr.GlobalRelabelInterval
	if interval == 0 {
		interval = n
	}
	relabelsSince := 0

	for v := 0; v < n; v++ {
		if v != s && v != t && pr.excess[v] > 0 {
			pr.enqueue(int32(v))
		}
	}

	// FIFO scan by index: the slice is never re-sliced from the front, so
	// its backing array converges to the run's peak queue length and
	// steady-state runs stay allocation-free.
	for head := 0; head < len(pr.queue); head++ {
		v := pr.queue[head]
		pr.inQueue[v] = false
		relabeled := pr.discharge(int(v), s, t)
		if pr.excess[v] > 0 && int(v) != s && int(v) != t {
			pr.enqueue(v)
		}
		if relabeled {
			relabelsSince++
			if interval > 0 && relabelsSince >= interval {
				pr.globalRelabel(s, t)
				relabelsSince = 0
			}
		}
	}
	return inflow(g, t)
}

// discharge pushes v's excess to admissible neighbors; if none remain it
// relabels v once and returns true (FIFO discipline: the caller requeues v
// if it still has excess).
func (pr *PushRelabel) discharge(v, s, t int) (relabeled bool) {
	g := pr.g
	end := g.Start[v+1]
	for pr.excess[v] > 0 {
		pos := pr.curArc[v]
		if pos >= end {
			// Arc range exhausted: relabel to one above the lowest residual
			// neighbor.
			pr.relabel(v, s, t)
			return true
		}
		a := g.ArcIdx[pos]
		pr.metrics.ArcScans++
		w := g.To[a]
		if g.Residual(int(a)) > 0 && pr.height[v] == pr.height[w]+1 {
			delta := pr.excess[v]
			if r := g.Residual(int(a)); r < delta {
				delta = r
			}
			g.Push(int(a), delta)
			pr.excess[v] -= delta
			pr.excess[w] += delta
			pr.metrics.Pushes++
			if int(w) != s && int(w) != t && !pr.inQueue[w] {
				pr.enqueue(w)
			}
			continue // the same arc may still be admissible
		}
		pr.curArc[v] = pos + 1
	}
	return false
}

// relabel lifts v to one above its lowest residual neighbor, applying the
// gap heuristic when v's old height level empties out.
func (pr *PushRelabel) relabel(v, s, t int) {
	g := pr.g
	n := int32(g.N)
	minH := int32(2 * g.N) // "unreachable" ceiling
	for _, a := range g.ArcIdx[g.Start[v]:g.Start[v+1]] {
		pr.metrics.ArcScans++
		if g.Residual(int(a)) > 0 {
			if h := pr.height[g.To[a]]; h < minH {
				minH = h
			}
		}
	}
	old := pr.height[v]
	newH := minH + 1
	if newH > 2*n {
		newH = 2 * n
	}
	if newH <= old {
		// Heights are monotone; a stale current-arc pointer is the only way
		// to get here, and resetting it retries the scan.
		pr.curArc[v] = g.Start[v]
		return
	}
	pr.hcount[old]--
	pr.height[v] = newH
	pr.hcount[newH]++
	pr.curArc[v] = g.Start[v]
	pr.metrics.Relabels++

	// Gap heuristic: if no vertex remains at height `old` and old < n, no
	// vertex above the gap can reach the sink any more — lift them all
	// past n so their excess heads straight back to the source.
	if pr.hcount[old] == 0 && old < n {
		for u := 0; u < g.N; u++ {
			if u == s || u == t {
				continue
			}
			if h := pr.height[u]; h > old && h <= n {
				pr.hcount[h]--
				pr.height[u] = n + 1
				pr.hcount[n+1]++
				pr.curArc[u] = g.Start[u]
			}
		}
	}
}

// globalRelabel recomputes exact heights: the residual BFS distance to the
// sink, with source-side vertices (those that cannot reach the sink)
// lifted to n plus their residual distance to the source. This is the
// "exact height calculation" heuristic the paper cites from [19].
func (pr *PushRelabel) globalRelabel(s, t int) {
	g := pr.g
	n := int32(g.N)
	pr.metrics.GlobalRelabels++
	for i := 0; i < g.N; i++ {
		pr.height[i] = 2 * n
		pr.curArc[i] = g.Start[i]
	}
	for i := range pr.hcount[:2*g.N+1] {
		pr.hcount[i] = 0
	}
	// Backward BFS from t over residual arcs u->v (the dual of each arc
	// v->u in v's adjacency list). The queue is a reused scratch slice so
	// the periodic recomputation stays allocation-free.
	bfs := func(root int, base int32) {
		pr.height[root] = base
		q := append(pr.bfsq[:0], int32(root))
		for head := 0; head < len(q); head++ {
			v := q[head]
			for _, a := range g.ArcIdx[g.Start[v]:g.Start[v+1]] {
				pr.metrics.ArcScans++
				u := g.To[a]
				// residual arc u->v exists iff the dual arc has capacity left
				if g.Residual(int(a)^1) > 0 && pr.height[u] == 2*n && int(u) != s && int(u) != t {
					pr.height[u] = pr.height[v] + 1
					q = append(q, u)
				}
			}
		}
		pr.bfsq = q
	}
	bfs(t, 0)
	pr.height[s] = n
	bfs(s, n)
	for i := 0; i < g.N; i++ {
		pr.hcount[pr.height[i]]++
	}
}

func (pr *PushRelabel) enqueue(v int32) {
	pr.queue = append(pr.queue, v)
	pr.inQueue[v] = true
}

func (pr *PushRelabel) ensureSize(n int) {
	if len(pr.height) >= n {
		return
	}
	pr.height = make([]int32, n)
	pr.excess = make([]int64, n)
	pr.curArc = make([]int32, n)
	pr.inQueue = make([]bool, n)
	pr.hcount = make([]int32, 2*n+1)
}

// sanityCheck panics if an internal invariant is violated; used in tests.
func (pr *PushRelabel) sanityCheck(s, t int) {
	for v := 0; v < pr.g.N; v++ {
		if v == s || v == t {
			continue
		}
		if pr.excess[v] != 0 {
			panic(fmt.Sprintf("push-relabel: residual excess %d at vertex %d", pr.excess[v], v))
		}
	}
}
