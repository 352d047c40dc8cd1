package maxflow

import "imflow/internal/flowgraph"

// FordFulkerson is the DFS augmenting-path method of Ford and Fulkerson.
// It repeatedly finds a residual s-t path by depth-first search and pushes
// the bottleneck along it. Algorithms 1 and 2 of the paper drive it one
// bucket at a time through AugmentFrom.
type FordFulkerson struct {
	g       *flowgraph.Graph
	visited []int32 // visitation stamps, avoiding O(n) clears per DFS
	stamp   int32
	arcs    []int32    // DFS arc stack (the path when the sink is reached)
	verts   []int32    // DFS vertex stack parallel to arcs
	stack   []dfsFrame // explicit DFS frame stack, reused across searches
	metrics Metrics
}

// dfsFrame is one suspended vertex of the iterative DFS: the vertex and
// the CSR position of the next arc to try out of it.
type dfsFrame struct {
	v   int32
	pos int32
}

// NewFordFulkerson returns an engine bound to g.
// Construction allocates by design; callers hoist it out of hot loops.
//
//imflow:allocok
func NewFordFulkerson(g *flowgraph.Graph) *FordFulkerson {
	return &FordFulkerson{g: g, visited: make([]int32, g.N)}
}

// Name implements Engine.
func (f *FordFulkerson) Name() string { return "ford-fulkerson-dfs" }

// Metrics implements Engine.
func (f *FordFulkerson) Metrics() *Metrics { return &f.metrics }

// Reset implements Engine: re-sync the visitation array with the (possibly
// rebuilt) graph and restart the stamp sequence.
// Amortized: (re)sizes engine-owned scratch that is reused across solves.
//
//imflow:allocok
func (f *FordFulkerson) Reset() {
	if cap(f.visited) < f.g.N {
		f.visited = make([]int32, f.g.N)
	}
	f.visited = f.visited[:f.g.N]
	for i := range f.visited {
		f.visited[i] = 0
	}
	f.stamp = 0
	f.arcs = f.arcs[:0]
	f.verts = f.verts[:0]
	f.stack = f.stack[:0]
}

// Run augments the current flow to a maximum flow and returns its value.
func (f *FordFulkerson) Run(s, t int) int64 {
	for f.AugmentFrom(s, t) > 0 {
	}
	return f.g.FlowValue(s)
}

// AugmentFrom searches for one residual path from `from` to t and pushes
// the bottleneck capacity along it, returning the amount pushed (0 if no
// residual path exists).
func (f *FordFulkerson) AugmentFrom(from, t int) int64 {
	return f.AugmentFromAvoiding(from, t, -1)
}

// AugmentFromAvoiding is AugmentFrom with one vertex excluded from the
// search. The retrieval algorithms route a single bucket's unit of flow by
// calling AugmentFromAvoiding(bucketVertex, sink, source) after saturating
// the bucket's source arc: excluding the source keeps the DFS from
// "undoing" that arc and re-routing the unit through a different bucket's
// source arc. Pass avoid = -1 to exclude nothing.
// Per-solve scratch is engine-owned and amortized across reuse.
//
//imflow:allocok
func (f *FordFulkerson) AugmentFromAvoiding(from, t, avoid int) int64 {
	if len(f.visited) < f.g.N {
		f.visited = make([]int32, f.g.N)
		f.stamp = 0
	}
	f.stamp++
	f.arcs = f.arcs[:0]
	f.verts = f.verts[:0]
	if avoid >= 0 {
		f.visited[avoid] = f.stamp
	}
	if !f.dfs(from, t) {
		return 0
	}
	g := f.g
	bottleneck := int64(1) << 62
	for _, a := range f.arcs {
		if r := g.Residual(int(a)); r < bottleneck {
			bottleneck = r
		}
	}
	for _, a := range f.arcs {
		g.Push(int(a), bottleneck)
	}
	f.metrics.Augmentations++
	return bottleneck
}

// dfs performs an iterative depth-first search over residual arcs, leaving
// the discovered path in f.arcs when it returns true.
func (f *FordFulkerson) dfs(from, t int) bool {
	g := f.g
	if from == t {
		return true
	}
	f.visited[from] = f.stamp
	// Explicit stack of (vertex, next position to try), reused across calls.
	f.stack = append(f.stack[:0], dfsFrame{int32(from), g.Start[from]})
	for len(f.stack) > 0 {
		top := &f.stack[len(f.stack)-1]
		advanced := false
		for pos := top.pos; pos < g.Start[top.v+1]; pos++ {
			a := g.ArcIdx[pos]
			f.metrics.ArcScans++
			w := g.To[a]
			if g.Residual(int(a)) <= 0 || f.visited[w] == f.stamp {
				continue
			}
			top.pos = pos + 1 // resume point for this frame
			f.arcs = append(f.arcs, a)
			if int(w) == t {
				return true
			}
			f.visited[w] = f.stamp
			f.stack = append(f.stack, dfsFrame{w, g.Start[w]})
			advanced = true
			break
		}
		if !advanced {
			f.stack = f.stack[:len(f.stack)-1]
			if len(f.arcs) > 0 {
				f.arcs = f.arcs[:len(f.arcs)-1]
			}
		}
	}
	return false
}

// EdmondsKarp is the shortest-augmenting-path (BFS) specialization of
// Ford-Fulkerson, with the familiar O(V * E^2) bound. It serves as the
// trusted reference engine for the oracle and the property tests.
type EdmondsKarp struct {
	g       *flowgraph.Graph
	parent  []int32 // arc that discovered each vertex
	queue   []int32
	metrics Metrics
}

// NewEdmondsKarp returns an engine bound to g.
func NewEdmondsKarp(g *flowgraph.Graph) *EdmondsKarp {
	return &EdmondsKarp{g: g, parent: make([]int32, g.N)}
}

// Name implements Engine.
func (e *EdmondsKarp) Name() string { return "edmonds-karp" }

// Metrics implements Engine.
func (e *EdmondsKarp) Metrics() *Metrics { return &e.metrics }

// Reset implements Engine: re-sync the parent array with the graph.
// Amortized: (re)sizes engine-owned scratch that is reused across solves.
//
//imflow:allocok
func (e *EdmondsKarp) Reset() {
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
func (e *EdmondsKarp) Run(s, t int) int64 {
	g := e.g
	if len(e.parent) < g.N {
		e.parent = make([]int32, g.N)
	}
	for {
		for i := range e.parent[:g.N] {
			e.parent[i] = -1
		}
		e.parent[s] = -2
		e.queue = append(e.queue[:0], int32(s))
		found := false
	bfs:
		for head := 0; head < len(e.queue); head++ {
			v := e.queue[head]
			for _, a := range g.ArcIdx[g.Start[v]:g.Start[v+1]] {
				e.metrics.ArcScans++
				w := g.To[a]
				if e.parent[w] != -1 || g.Residual(int(a)) <= 0 {
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
			return g.FlowValue(s)
		}
		// Walk the path backwards to find the bottleneck, then push.
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
	}
}
