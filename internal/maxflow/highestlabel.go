package maxflow

import "imflow/internal/flowgraph"

// HighestLabel is the highest-label push-relabel variant: instead of FIFO
// order, it always discharges an active vertex of maximum height. This is
// the ordering used by the well-known hi_pr implementation and carries the
// better O(V^2 * sqrt(E)) bound. It shares the exact-height and gap
// heuristics with the FIFO engine and, like every engine here, augments
// the graph's current flow, so it can serve as a drop-in engine for the
// integrated retrieval algorithms (an ablation point over the paper's FIFO
// choice).
type HighestLabel struct {
	g *flowgraph.Graph

	height []int32
	excess []int64
	curArc []int32 // position into g.ArcIdx, as in PushRelabel
	hcount []int32
	bfsq   []int32 // scratch queue for globalRelabel, reused across runs

	// active[h] is a stack (LIFO) of active vertices at height h;
	// inBucket tracks membership to avoid duplicates.
	active   [][]int32
	inBucket []bool
	highest  int32

	// GlobalRelabelInterval as in PushRelabel; 0 means the vertex count,
	// negative disables periodic recomputation.
	GlobalRelabelInterval int

	metrics Metrics
}

// NewHighestLabel returns an engine bound to g.
func NewHighestLabel(g *flowgraph.Graph) *HighestLabel {
	return &HighestLabel{
		g:        g,
		height:   make([]int32, g.N),
		excess:   make([]int64, g.N),
		curArc:   make([]int32, g.N),
		hcount:   make([]int32, 2*g.N+1),
		active:   make([][]int32, 2*g.N+1),
		inBucket: make([]bool, g.N),
	}
}

// Name implements Engine.
func (hl *HighestLabel) Name() string { return "push-relabel-highest" }

// Metrics implements Engine.
func (hl *HighestLabel) Metrics() *Metrics { return &hl.metrics }

// Reset implements Engine: re-sync scratch with the (possibly rebuilt)
// graph. Run re-derives all per-run state, so only sizing matters here.
// Amortized: (re)sizes engine-owned scratch that is reused across solves.
//
//imflow:allocok
func (hl *HighestLabel) Reset() {
	hl.ensureSize(hl.g.N)
}

// Run augments the current flow to a maximum s-t flow and returns its
// value. Like PushRelabel.Run it compacts the graph first (a no-op on a
// frozen graph) and scans only the CSR ranges.
// Per-solve scratch is engine-owned and amortized across reuse.
//
//imflow:allocok
//imflow:det
func (hl *HighestLabel) Run(s, t int) int64 {
	g := hl.g
	g.Compact()
	n := g.N
	hl.ensureSize(n)
	for i := 0; i < n; i++ {
		hl.excess[i] = 0
		hl.inBucket[i] = false
	}
	for h := range hl.active {
		hl.active[h] = hl.active[h][:0]
	}
	hl.highest = 0

	for _, a := range g.ArcIdx[g.Start[s]:g.Start[s+1]] {
		if delta := g.Residual(int(a)); delta > 0 {
			g.Push(int(a), delta)
			hl.excess[g.To[a]] += delta
			hl.metrics.Pushes++
		}
	}
	hl.globalRelabel(s, t)
	for v := 0; v < n; v++ {
		if v != s && v != t && hl.excess[v] > 0 {
			hl.push(int32(v))
		}
	}

	interval := hl.GlobalRelabelInterval
	if interval == 0 {
		interval = n
	}
	relabelsSince := 0

	for {
		v := hl.pop()
		if v < 0 {
			break
		}
		relabeled := hl.discharge(int(v), s, t)
		if hl.excess[v] > 0 && int(v) != s && int(v) != t {
			hl.push(v)
		}
		if relabeled {
			relabelsSince++
			if interval > 0 && relabelsSince >= interval {
				hl.globalRelabel(s, t)
				hl.rebuildBuckets(s, t)
				relabelsSince = 0
			}
		}
	}
	return inflow(g, t)
}

// discharge pushes v's excess to admissible neighbors, relabeling once if
// none remain (caller requeues).
func (hl *HighestLabel) discharge(v, s, t int) (relabeled bool) {
	g := hl.g
	end := g.Start[v+1]
	for hl.excess[v] > 0 {
		pos := hl.curArc[v]
		if pos >= end {
			hl.relabel(v, s, t)
			return true
		}
		a := g.ArcIdx[pos]
		hl.metrics.ArcScans++
		w := g.To[a]
		if g.Residual(int(a)) > 0 && hl.height[v] == hl.height[w]+1 {
			delta := hl.excess[v]
			if r := g.Residual(int(a)); r < delta {
				delta = r
			}
			g.Push(int(a), delta)
			hl.excess[v] -= delta
			hl.excess[w] += delta
			hl.metrics.Pushes++
			if int(w) != s && int(w) != t {
				hl.push(w)
			}
			continue
		}
		hl.curArc[v] = pos + 1
	}
	return false
}

// relabel lifts v to one above its lowest residual neighbor, with the gap
// heuristic.
func (hl *HighestLabel) relabel(v, s, t int) {
	g := hl.g
	n := int32(g.N)
	minH := int32(2 * g.N)
	for _, a := range g.ArcIdx[g.Start[v]:g.Start[v+1]] {
		hl.metrics.ArcScans++
		if g.Residual(int(a)) > 0 {
			if h := hl.height[g.To[a]]; h < minH {
				minH = h
			}
		}
	}
	old := hl.height[v]
	newH := minH + 1
	if newH > 2*n {
		newH = 2 * n
	}
	if newH <= old {
		hl.curArc[v] = g.Start[v]
		return
	}
	hl.hcount[old]--
	hl.height[v] = newH
	hl.hcount[newH]++
	hl.curArc[v] = g.Start[v]
	hl.metrics.Relabels++

	if hl.hcount[old] == 0 && old < n {
		for u := 0; u < g.N; u++ {
			if u == s || u == t {
				continue
			}
			if h := hl.height[u]; h > old && h <= n {
				hl.hcount[h]--
				hl.height[u] = n + 1
				hl.hcount[n+1]++
				hl.curArc[u] = g.Start[u]
			}
		}
		hl.rebuildBuckets(s, t)
	}
}

// push inserts v into its height bucket if not already queued.
func (hl *HighestLabel) push(v int32) {
	if hl.inBucket[v] {
		return
	}
	h := hl.height[v]
	hl.active[h] = append(hl.active[h], v)
	hl.inBucket[v] = true
	if h > hl.highest {
		hl.highest = h
	}
}

// pop removes and returns an active vertex of maximum height, or -1.
func (hl *HighestLabel) pop() int32 {
	for hl.highest >= 0 {
		bucket := hl.active[hl.highest]
		if len(bucket) == 0 {
			hl.highest--
			continue
		}
		v := bucket[len(bucket)-1]
		hl.active[hl.highest] = bucket[:len(bucket)-1]
		// The vertex may have been relabeled since insertion; requeue at
		// its current height if it moved.
		if hl.height[v] != hl.highest {
			hl.inBucket[v] = false
			if hl.excess[v] > 0 {
				hl.push(v)
			}
			continue
		}
		hl.inBucket[v] = false
		return v
	}
	return -1
}

// rebuildBuckets re-files every active vertex under its current height
// (used after bulk height changes).
func (hl *HighestLabel) rebuildBuckets(s, t int) {
	for h := range hl.active {
		hl.active[h] = hl.active[h][:0]
	}
	hl.highest = 0
	for v := 0; v < hl.g.N; v++ {
		hl.inBucket[v] = false
		if v != s && v != t && hl.excess[v] > 0 {
			hl.push(int32(v))
		}
	}
}

// globalRelabel recomputes exact heights (same as the FIFO engine).
func (hl *HighestLabel) globalRelabel(s, t int) {
	g := hl.g
	n := int32(g.N)
	hl.metrics.GlobalRelabels++
	for i := 0; i < g.N; i++ {
		hl.height[i] = 2 * n
		hl.curArc[i] = g.Start[i]
	}
	for i := range hl.hcount[:2*g.N+1] {
		hl.hcount[i] = 0
	}
	bfs := func(root int, base int32) {
		hl.height[root] = base
		q := append(hl.bfsq[:0], int32(root))
		for head := 0; head < len(q); head++ {
			v := q[head]
			for _, a := range g.ArcIdx[g.Start[v]:g.Start[v+1]] {
				hl.metrics.ArcScans++
				u := g.To[a]
				if g.Residual(int(a)^1) > 0 && hl.height[u] == 2*n && int(u) != s && int(u) != t {
					hl.height[u] = hl.height[v] + 1
					q = append(q, u)
				}
			}
		}
		hl.bfsq = q
	}
	bfs(t, 0)
	hl.height[s] = n
	bfs(s, n)
	for i := 0; i < g.N; i++ {
		hl.hcount[hl.height[i]]++
	}
}

func (hl *HighestLabel) ensureSize(n int) {
	if len(hl.height) >= n {
		return
	}
	hl.height = make([]int32, n)
	hl.excess = make([]int64, n)
	hl.curArc = make([]int32, n)
	hl.hcount = make([]int32, 2*n+1)
	hl.active = make([][]int32, 2*n+1)
	hl.inBucket = make([]bool, n)
}
