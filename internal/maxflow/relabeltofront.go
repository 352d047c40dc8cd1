package maxflow

import "imflow/internal/flowgraph"

// RelabelToFront is the relabel-to-front push-relabel variant (CLRS):
// vertices are kept in a list; each discharge fully drains a vertex, and a
// relabeled vertex moves to the front of the list. O(V^3) without any
// heuristics — included as the textbook reference point the paper's
// heuristic-equipped FIFO implementation is an improvement over, and as an
// extra cross-validation engine.
type RelabelToFront struct {
	g       *flowgraph.Graph
	height  []int32
	excess  []int64
	curArc  []int32 // position into g.ArcIdx, as in PushRelabel
	list    []int32 // the textbook L list, reused across runs
	metrics Metrics
}

// NewRelabelToFront returns an engine bound to g.
func NewRelabelToFront(g *flowgraph.Graph) *RelabelToFront {
	return &RelabelToFront{
		g:      g,
		height: make([]int32, g.N),
		excess: make([]int64, g.N),
		curArc: make([]int32, g.N),
	}
}

// Name implements Engine.
func (rt *RelabelToFront) Name() string { return "push-relabel-rtf" }

// Metrics implements Engine.
func (rt *RelabelToFront) Metrics() *Metrics { return &rt.metrics }

// Reset implements Engine: re-sync scratch with the (possibly rebuilt)
// graph. Run re-derives all per-run state, so only sizing matters here.
// Amortized: (re)sizes engine-owned scratch that is reused across solves.
//
//imflow:allocok
func (rt *RelabelToFront) Reset() {
	if cap(rt.height) < rt.g.N {
		rt.height = make([]int32, rt.g.N)
		rt.excess = make([]int64, rt.g.N)
		rt.curArc = make([]int32, rt.g.N)
	}
	rt.height = rt.height[:rt.g.N]
	rt.excess = rt.excess[:rt.g.N]
	rt.curArc = rt.curArc[:rt.g.N]
	rt.list = rt.list[:0]
}

// Run augments the current flow to a maximum s-t flow and returns its
// value. Like PushRelabel.Run it compacts the graph first (a no-op on a
// frozen graph) and scans only the CSR ranges.
// Per-solve scratch is engine-owned and amortized across reuse.
//
//imflow:allocok
//imflow:det
func (rt *RelabelToFront) Run(s, t int) int64 {
	g := rt.g
	g.Compact()
	n := g.N
	if len(rt.height) < n {
		rt.height = make([]int32, n)
		rt.excess = make([]int64, n)
		rt.curArc = make([]int32, n)
	}
	for v := 0; v < n; v++ {
		rt.height[v] = 0
		rt.excess[v] = 0
		rt.curArc[v] = g.Start[v]
	}
	rt.height[s] = int32(n)
	for _, a := range g.ArcIdx[g.Start[s]:g.Start[s+1]] {
		if delta := g.Residual(int(a)); delta > 0 {
			g.Push(int(a), delta)
			rt.excess[g.To[a]] += delta
			rt.metrics.Pushes++
		}
	}

	// The textbook L list: all vertices except s and t, any order. The
	// backing array is reused across runs.
	list := rt.list[:0]
	for v := 0; v < n; v++ {
		if v != s && v != t {
			list = append(list, int32(v))
		}
	}
	rt.list = list
	for i := 0; i < len(list); {
		v := list[i]
		oldHeight := rt.height[v]
		rt.dischargeFully(int(v))
		if rt.height[v] > oldHeight {
			// Move v to the front and restart the scan after it.
			copy(list[1:i+1], list[:i])
			list[0] = v
			i = 1
			continue
		}
		i++
	}
	return inflow(g, t)
}

// dischargeFully drains v's excess completely, relabeling as needed.
func (rt *RelabelToFront) dischargeFully(v int) {
	g := rt.g
	end := g.Start[v+1]
	for rt.excess[v] > 0 {
		pos := rt.curArc[v]
		if pos >= end {
			// relabel
			minH := int32(2 * g.N)
			for _, b := range g.ArcIdx[g.Start[v]:end] {
				rt.metrics.ArcScans++
				if g.Residual(int(b)) > 0 {
					if h := rt.height[g.To[b]]; h < minH {
						minH = h
					}
				}
			}
			rt.height[v] = minH + 1
			rt.curArc[v] = g.Start[v]
			rt.metrics.Relabels++
			continue
		}
		a := g.ArcIdx[pos]
		rt.metrics.ArcScans++
		w := g.To[a]
		if g.Residual(int(a)) > 0 && rt.height[v] == rt.height[w]+1 {
			delta := rt.excess[v]
			if r := g.Residual(int(a)); r < delta {
				delta = r
			}
			g.Push(int(a), delta)
			rt.excess[v] -= delta
			rt.excess[w] += delta
			rt.metrics.Pushes++
			continue
		}
		rt.curArc[v] = pos + 1
	}
}

// ScalingEdmondsKarp is Edmonds-Karp with capacity scaling: augmenting
// paths are restricted to residual capacities >= Delta, halving Delta until
// 1. O(E^2 log U). Included both for cross-validation and because binary
// *capacity* scaling is the paper's own trick at the retrieval layer — this
// engine is the classic flow-layer analogue.
type ScalingEdmondsKarp struct {
	g       *flowgraph.Graph
	parent  []int32
	queue   []int32
	metrics Metrics
}

// NewScalingEdmondsKarp returns an engine bound to g.
func NewScalingEdmondsKarp(g *flowgraph.Graph) *ScalingEdmondsKarp {
	return &ScalingEdmondsKarp{g: g, parent: make([]int32, g.N)}
}

// Name implements Engine.
func (e *ScalingEdmondsKarp) Name() string { return "edmonds-karp-scaling" }

// Metrics implements Engine.
func (e *ScalingEdmondsKarp) Metrics() *Metrics { return &e.metrics }

// Reset implements Engine: re-sync the parent array with the graph.
// Amortized: (re)sizes engine-owned scratch that is reused across solves.
//
//imflow:allocok
func (e *ScalingEdmondsKarp) Reset() {
	if cap(e.parent) < e.g.N {
		e.parent = make([]int32, e.g.N)
	}
	e.parent = e.parent[:e.g.N]
	e.queue = e.queue[:0]
}

// Run augments the current flow to a maximum flow and returns its value.
// Per-solve scratch is engine-owned and amortized across reuse.
//
//imflow:allocok
//imflow:det
func (e *ScalingEdmondsKarp) Run(s, t int) int64 {
	g := e.g
	if len(e.parent) < g.N {
		e.parent = make([]int32, g.N)
	}
	var maxRes int64
	for a := 0; a < g.M(); a++ {
		if r := g.Residual(a); r > maxRes {
			maxRes = r
		}
	}
	delta := int64(1)
	for delta*2 <= maxRes {
		delta *= 2
	}
	for ; delta >= 1; delta /= 2 {
		for e.augment(s, t, delta) {
		}
	}
	return g.FlowValue(s)
}

// augment finds one shortest residual path using only arcs with residual
// >= delta and pushes its bottleneck; returns false if none exists.
func (e *ScalingEdmondsKarp) augment(s, t int, delta int64) bool {
	g := e.g
	for i := range e.parent[:g.N] {
		e.parent[i] = -1
	}
	e.parent[s] = -2
	e.queue = append(e.queue[:0], int32(s))
	found := false
bfs:
	for head := 0; head < len(e.queue); head++ {
		v := e.queue[head]
		for a := g.Head[v]; a >= 0; a = g.Next[a] {
			e.metrics.ArcScans++
			w := g.To[a]
			if e.parent[w] != -1 || g.Residual(int(a)) < delta {
				continue
			}
			e.parent[w] = a
			if int(w) == t {
				found = true
				break bfs
			}
			e.queue = append(e.queue, w)
		}
	}
	if !found {
		return false
	}
	bottleneck := int64(1) << 62
	for v := int32(t); int(v) != s; {
		a := e.parent[v]
		if r := g.Residual(int(a)); r < bottleneck {
			bottleneck = r
		}
		v = g.To[a^1]
	}
	for v := int32(t); int(v) != s; {
		a := e.parent[v]
		g.Push(int(a), bottleneck)
		v = g.To[a^1]
	}
	e.metrics.Augmentations++
	return true
}
