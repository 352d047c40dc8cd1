package maxflow

import (
	"fmt"

	"imflow/internal/flowgraph"
)

// PushRelabel is a FIFO push-relabel engine (Goldberg & Tarjan) with the
// two practical heuristics recommended by Cherkassky & Goldberg and used by
// the paper's implementation:
//
//   - exact height initialization ("global relabeling"): Run starts from
//     exact residual BFS distances to the sink, recomputed periodically,
//     instead of the all-zero initialization of the textbook algorithm;
//   - gap relabeling: when some height below n becomes unoccupied, every
//     vertex stranded above the gap is lifted past n at once, since it can
//     no longer reach the sink.
//
// Run augments the graph's *current* flow: it saturates the residual
// source arcs, turning the flow into a preflow, and discharges until no
// active vertex remains. Excess that cannot reach the sink drains back to
// the source, so the final state is always a feasible maximum flow — which
// is exactly what the integrated algorithms need between capacity updates.
// The engine keeps the heights its last run ended with; Resume starts the
// next run from them, repairing only the labels the capacity changes
// invalidated, instead of recomputing them all.
type PushRelabel struct {
	g *flowgraph.Graph

	height  []int32
	excess  []int64
	curArc  []int32 // position into g.ArcIdx; v's range ends at g.Start[v+1]
	queue   []int32
	inQueue []bool
	hcount  []int32 // number of vertices at each height, for the gap heuristic
	bfsq    []int32 // scratch queue for globalRelabel and repair, reused across runs
	labeled bool    // height holds the labelling the last run ended with

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
// graph and drop the heights the last run left, so the next Resume falls
// back to a full global relabel.
// Amortized: (re)sizes engine-owned scratch that is reused across solves.
//
//imflow:allocok
func (pr *PushRelabel) Reset() {
	pr.ensureSize(pr.g.N)
	pr.queue = pr.queue[:0]
	pr.labeled = false
}

// Run augments the current flow to a maximum s-t flow and returns its
// value.
// Per-solve scratch is engine-owned and amortized across reuse.
//
//imflow:allocok
func (pr *PushRelabel) Run(s, t int) int64 {
	pr.saturate(s)
	pr.globalRelabel(s, t)
	return pr.runFIFO(s, t)
}

// Resume is Run without the opening global relabel: it starts from the
// heights the engine's last run on this graph ended with and repairs only
// those the changes since then invalidated. It is exactly Run after Reset,
// before any run, and when saturating the source arcs adds more flow than
// the graph kept: the drain then cancelled most of the flow the old
// heights were shaped by, and exact heights route the new flow with fewer
// pushes and relabels than repaired ones. (Measured on backlogged disks,
// where a probe opens or closes most disks at once.)
//
// The repair covers only the changes the retrieval solvers make between
// runs, so Resume requires all of:
//   - every s-t path of the graph has at most three arcs;
//   - since the last run, the flow has only lost whole s-t paths
//     (flowgraph.DrainExcess, or cancelling a unit path by hand);
//   - capacities have changed only on arcs into t, either way, and on
//     arcs out of s, upward only. (A lowered source arc can drain a path
//     whose first vertex then takes no excess, so nothing would mark
//     that vertex for repair.)
//
// Under the imflow_audit build tag Resume checks that the repaired heights
// are a valid labelling and panics otherwise, so a caller that breaks the
// precondition fails loudly instead of getting a non-maximum flow.
// Per-solve scratch is engine-owned and amortized across reuse.
//
//imflow:allocok
func (pr *PushRelabel) Resume(s, t int) int64 {
	kept, added := pr.saturate(s)
	if pr.labeled && added <= kept {
		pr.repair(s, t)
		auditLabels(pr, s, t)
	} else {
		pr.globalRelabel(s, t)
	}
	return pr.runFIFO(s, t)
}

// saturate clears the per-run state and saturates the residual source
// arcs: the current flow plus these pushes is a preflow whose excesses
// sit at the source's neighbors. It returns the flow the source arcs
// already carried and the excess it added.
func (pr *PushRelabel) saturate(s int) (kept, added int64) {
	g := pr.g
	n := g.N
	pr.ensureSize(n)
	for i := 0; i < n; i++ {
		pr.excess[i] = 0
		pr.inQueue[i] = false
	}
	pr.queue = pr.queue[:0]
	for _, a := range g.ArcIdx[g.Start[s]:g.Start[s+1]] {
		kept += g.Flow[a]
		if delta := g.Residual(int(a)); delta > 0 {
			g.Push(int(a), delta)
			pr.excess[g.To[a]] += delta
			added += delta
			pr.metrics.Pushes++
		}
	}
	return kept, added
}

// runFIFO discharges active vertices in FIFO order from the saturated
// preflow and valid heights until none remains, and returns the flow
// value.
func (pr *PushRelabel) runFIFO(s, t int) int64 {
	g := pr.g
	n := g.N
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
	pr.labeled = true
	return inflow(g, t)
}

// repair makes the heights the last run left a valid labelling again
// (h(u) <= h(v)+1 on every residual arc u->v) after the changes Resume's
// precondition allows. Those changes open residual arcs only on drained
// s-t paths and on arcs into t, so only three kinds of vertex can need
// lower heights:
//  1. a vertex that took excess from s: its drained path left it new
//     residual arcs, so it is lowered to one above its lowest residual
//     neighbor (the arc back to s caps it at n+1);
//  2. the tail of an arc into t with residual capacity, lowered to 1;
//  3. a vertex with a residual arc into a vertex lowered by 1, 2 or 3,
//     found by a backward BFS from the lowered vertices, and lowered to
//     one above it.
//
// Heights only fall, so every arc that was valid stays valid except those
// into lowered vertices, which the BFS walks. The same three kinds of
// vertex are the only ones that can have gained an admissible arc, so
// only their current arcs are reset, and the height counts are kept
// up to date as vertices are lowered: the repair scans the arcs at s and
// t and what it lowers, not every vertex.
func (pr *PushRelabel) repair(s, t int) {
	g := pr.g
	q := pr.bfsq[:0]
	for _, a := range g.ArcIdx[g.Start[s]:g.Start[s+1]] {
		v := g.To[a]
		if int(v) == s || int(v) == t || pr.excess[v] == 0 {
			continue
		}
		pr.curArc[v] = g.Start[v]
		minH := pr.height[v] - 1
		for _, b := range g.ArcIdx[g.Start[v]:g.Start[v+1]] {
			pr.metrics.ArcScans++
			if g.Residual(int(b)) > 0 {
				if h := pr.height[g.To[b]]; h < minH {
					minH = h
				}
			}
		}
		if minH+1 < pr.height[v] {
			pr.lower(v, minH+1)
			q = append(q, v)
		}
	}
	for _, a := range g.ArcIdx[g.Start[t]:g.Start[t+1]] {
		pr.metrics.ArcScans++
		u := g.To[a]
		if int(u) == s || g.Residual(int(a)^1) == 0 {
			continue
		}
		pr.curArc[u] = g.Start[u]
		if pr.height[u] > 1 {
			pr.lower(u, 1)
			q = append(q, u)
		}
	}
	for head := 0; head < len(q); head++ {
		v := q[head]
		hv := pr.height[v]
		for _, a := range g.ArcIdx[g.Start[v]:g.Start[v+1]] {
			pr.metrics.ArcScans++
			u := g.To[a]
			// residual arc u->v exists iff the dual arc has capacity left
			if int(u) == s || int(u) == t || g.Residual(int(a)^1) == 0 || pr.height[u] <= hv {
				continue
			}
			pr.curArc[u] = g.Start[u] // u->v may have become admissible
			if pr.height[u] > hv+1 {
				pr.lower(u, hv+1)
				q = append(q, u)
			}
		}
	}
	pr.bfsq = q
}

// lower moves v down to height h, keeping the height counts current.
func (pr *PushRelabel) lower(v, h int32) {
	pr.hcount[pr.height[v]]--
	pr.height[v] = h
	pr.hcount[h]++
	pr.curArc[v] = pr.g.Start[v]
}

// checkLabels reports the first way the heights fail to be a valid
// labelling of the residual graph: h(s) = n, h(t) = 0, and h(u) <= h(v)+1
// on every residual arc u->v. Resume's audit hook calls it after the
// repair.
func (pr *PushRelabel) checkLabels(s, t int) error {
	g := pr.g
	if h := pr.height[s]; int(h) != g.N {
		return fmt.Errorf("push-relabel: source height %d, want %d", h, g.N)
	}
	if h := pr.height[t]; h != 0 {
		return fmt.Errorf("push-relabel: sink height %d, want 0", h)
	}
	for a := 0; a < g.M(); a++ {
		if g.Residual(a) <= 0 {
			continue
		}
		u, v := g.To[a^1], g.To[a]
		if pr.height[u] > pr.height[v]+1 {
			return fmt.Errorf("push-relabel: residual arc %d (%d->%d) spans heights %d -> %d",
				a, u, v, pr.height[u], pr.height[v])
		}
	}
	return nil
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
	pr.labeled = false
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
