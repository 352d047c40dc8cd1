// Package flowgraph provides the residual flow network shared by every
// max-flow engine in this repository.
//
// The representation is the classic paired-arc store: arc a and arc a^1
// are duals (the reverse arc carries the negated flow), so the residual
// capacity of any arc is Cap[a]-Flow[a] and pushing delta over a is two
// array writes. Arc indices are stable after AddEdge, which is what lets
// the integrated retrieval algorithms retune disk-edge capacities between
// max-flow runs while conserving all previously computed flow.
//
// A graph is built, then frozen, then scanned: Resize and AddEdge build
// the arc store, Freeze derives the CSR adjacency index from it once, and
// every engine and walker reads only that index. Editing the arc set
// empties the index, so scanning a graph edited after its last Freeze
// panics instead of reading a stale one.
package flowgraph

import "fmt"

// Graph is a directed flow network over vertices [0, N).
//
// Flow is exported (alongside To, Cap and the CSR index) so that engines
// — in particular the lock-free parallel push-relabel, which needs atomic
// access to the flow array — can operate on the raw arrays without
// indirection.
type Graph struct {
	N    int
	To   []int32 // To[a]: head vertex of arc a
	Cap  []int64 // Cap[a]: capacity of arc a (0 for reverse arcs initially)
	Flow []int64 // Flow[a]: current flow; Flow[a^1] == -Flow[a]

	// CSR adjacency index, built by Freeze and emptied by Resize and
	// AddEdge. The arcs out of vertex v are ArcIdx[Start[v]:Start[v+1]],
	// last-added first. Arc indices themselves never move: Cap/Flow/To
	// stay keyed by the AddEdge indices, which is what keeps warm reuse,
	// DrainExcess, and disk-arc retuning valid across freezes.
	Start  []int32 // Start[v]: first slot of v's arc range; len N+1
	ArcIdx []int32 // ArcIdx[i]: arc id at CSR slot i; len M
}

// New returns an empty graph over n vertices.
// Construction allocates by design; callers hoist it out of hot loops.
//
//imflow:allocok
func New(n int) *Graph {
	if n < 0 {
		panic("flowgraph: negative vertex count")
	}
	return &Graph{N: n}
}

// Resize removes all arcs and sets the vertex count to n, reusing every
// backing array. Together with AddEdge and Freeze this is the in-place
// rebuild path of the integrated retrieval solvers: after the first solve
// on a given problem shape, a Resize + AddEdge + Freeze sweep performs no
// allocations.
func (g *Graph) Resize(n int) {
	if n < 0 {
		panic("flowgraph: negative vertex count")
	}
	g.To = g.To[:0]
	g.Cap = g.Cap[:0]
	g.Flow = g.Flow[:0]
	g.Start = g.Start[:0]
	g.N = n
}

// M returns the number of arcs, counting each edge's forward and reverse
// arc separately.
func (g *Graph) M() int { return len(g.To) }

// AddEdge adds a directed edge u->v with the given capacity and returns the
// forward arc's index a; the reverse arc is a^1 (a is always even). It
// empties the CSR index; call Freeze before the graph is scanned.
// Amortized: growth doubles, so per-edge cost is O(1) over a run.
//
//imflow:allocok
func (g *Graph) AddEdge(u, v int, capacity int64) int {
	if u < 0 || u >= g.N || v < 0 || v >= g.N {
		panic(fmt.Sprintf("flowgraph: edge (%d,%d) outside %d vertices", u, v, g.N))
	}
	if capacity < 0 {
		panic("flowgraph: negative capacity")
	}
	a := int32(len(g.To))
	g.To = append(g.To, int32(v), int32(u))
	g.Cap = append(g.Cap, capacity, 0)
	g.Flow = append(g.Flow, 0, 0)
	g.Start = g.Start[:0]
	return int(a)
}

// Freeze builds the CSR adjacency index of the current arc set: after it
// returns, ArcIdx[Start[v]:Start[v+1]] lists the arcs whose tail is v in
// descending id, last-added first. It is one counting sort. The tail of
// arc a is the head of its dual, so counting To counts every vertex's
// arcs; an inclusive prefix sum then leaves Start[v] at the end of v's
// range, and filling each range from its end, in ascending arc id,
// walks Start[v] back to the range's first slot. Arc indices are NOT
// remapped, so flows and retuning by arc index are untouched. Backing
// arrays are reused, so re-freezing a same-shape rebuild performs no
// allocations.
// Amortized: growth only when the arc set outgrows prior capacity.
//
//imflow:allocok
func (g *Graph) Freeze() {
	if cap(g.Start) < g.N+1 {
		g.Start = make([]int32, g.N+1)
	}
	if cap(g.ArcIdx) < len(g.To) {
		g.ArcIdx = make([]int32, len(g.To))
	}
	// Local slice headers: the loops below index through them instead of
	// reloading g's fields after every store.
	start, idx, to := g.Start[:g.N+1], g.ArcIdx[:len(g.To)], g.To
	g.Start, g.ArcIdx = start, idx
	clear(start)
	for _, v := range to {
		start[v]++
	}
	for v := 1; v < len(start); v++ {
		start[v] += start[v-1]
	}
	for a := 0; a < len(to); a += 2 { // arc a runs u->v, arc a+1 v->u
		v, u := to[a], to[a+1]
		start[u]--
		idx[start[u]] = int32(a)
		start[v]--
		idx[start[v]] = int32(a + 1)
	}
}

// Residual returns the residual capacity of arc a.
func (g *Graph) Residual(a int) int64 { return g.Cap[a] - g.Flow[a] }

// Push sends delta units of flow over arc a (and -delta over its dual).
// It panics if the push exceeds the residual capacity.
// Allocates only on the invariant-violation panic path.
//
//imflow:allocok
func (g *Graph) Push(a int, delta int64) {
	if delta > g.Residual(a) {
		panic(fmt.Sprintf("flowgraph: push %d over arc %d with residual %d", delta, a, g.Residual(a)))
	}
	g.Flow[a] += delta
	g.Flow[a^1] -= delta
}

// SetCap updates the capacity of arc a. Lowering a capacity below the
// current flow leaves the graph in a transiently infeasible state; the
// retrieval algorithms follow every such change with DrainExcess, which
// cancels the overflowing flow.
func (g *Graph) SetCap(a int, capacity int64) {
	if capacity < 0 {
		panic("flowgraph: negative capacity")
	}
	g.Cap[a] = capacity
}

// DrainExcess restores capacity-feasibility after capacities were lowered
// below the current flow: every arc whose flow exceeds its capacity has
// whole flow paths through it cancelled — the excess units are traced back
// toward s along flow-carrying arcs and forward toward t — until the arc
// fits again, so conservation holds at every vertex afterward. This is how
// the integrated retrieval solver carries flow from run to run, across
// queries and across disk failures: the conserved flow of the previous
// run, drained to the new (possibly lower) capacities, is a feasible flow
// of the new network the engines can augment from.
//
// The current flow must be feasible apart from the overfull arcs and
// decomposable into simple s-t paths (no flow cycles) — true for every
// network the retrieval solvers build, whose paths have depth at most
// three. It returns the number of units cancelled.
func (g *Graph) DrainExcess(s, t int) int64 {
	var total int64
	for a := 0; a < len(g.To); a += 2 {
		excess := g.Flow[a] - g.Cap[a]
		if excess <= 0 {
			continue
		}
		u, v := int(g.To[a^1]), int(g.To[a])
		g.Flow[a] -= excess
		g.Flow[a^1] += excess
		if u != s {
			g.cancelInto(u, s, excess)
		}
		if v != t {
			g.cancelOutOf(v, t, excess)
		}
		total += excess
	}
	return total
}

// cancelInto removes amount units of flow entering v, tracing each unit
// back toward s along flow-carrying arcs. Arcs out of v with negative
// flow are exactly the duals of arcs delivering flow into v.
func (g *Graph) cancelInto(v, s int, amount int64) {
	for _, a := range g.ArcIdx[g.Start[v]:g.Start[v+1]] {
		if amount <= 0 {
			break
		}
		if g.Flow[a] >= 0 {
			continue
		}
		c := -g.Flow[a]
		if c > amount {
			c = amount
		}
		if w := int(g.To[a]); w != s {
			g.cancelInto(w, s, c)
		}
		g.Flow[a] += c
		g.Flow[a^1] -= c
		amount -= c
	}
	if amount > 0 {
		panic("flowgraph: DrainExcess could not trace flow back to the source")
	}
}

// cancelOutOf removes amount units of flow leaving v, tracing each unit
// forward toward t along flow-carrying arcs.
func (g *Graph) cancelOutOf(v, t int, amount int64) {
	for _, a := range g.ArcIdx[g.Start[v]:g.Start[v+1]] {
		if amount <= 0 {
			break
		}
		if g.Flow[a] <= 0 {
			continue
		}
		c := g.Flow[a]
		if c > amount {
			c = amount
		}
		g.Flow[a] -= c
		g.Flow[a^1] += c
		if w := int(g.To[a]); w != t {
			g.cancelOutOf(w, t, c)
		}
		amount -= c
	}
	if amount > 0 {
		panic("flowgraph: DrainExcess could not trace flow forward to the sink")
	}
}

// ZeroFlows clears all flow, returning the graph to the zero flow.
func (g *Graph) ZeroFlows() {
	for i := range g.Flow {
		g.Flow[i] = 0
	}
}

// Outflow returns the net flow leaving vertex v: the flow value when v is
// the source, and minus the flow value when v is the sink.
func (g *Graph) Outflow(v int) int64 {
	var sum int64
	for _, a := range g.ArcIdx[g.Start[v]:g.Start[v+1]] {
		sum += g.Flow[a]
	}
	return sum
}

// FlowValue returns the value of the current flow from s (net outflow of
// the source).
func (g *Graph) FlowValue(s int) int64 { return g.Outflow(s) }

// CheckFlow verifies that the current flow is a feasible s-t flow:
// capacity constraints on every arc, antisymmetry between arc pairs, and
// conservation at every vertex other than s and t. It returns the flow
// value on success.
func (g *Graph) CheckFlow(s, t int) (int64, error) {
	for a := 0; a < len(g.To); a++ {
		if g.Flow[a] > g.Cap[a] {
			return 0, fmt.Errorf("flowgraph: arc %d flow %d exceeds cap %d", a, g.Flow[a], g.Cap[a])
		}
		if g.Flow[a] != -g.Flow[a^1] {
			return 0, fmt.Errorf("flowgraph: arcs %d/%d not antisymmetric (%d vs %d)",
				a, a^1, g.Flow[a], g.Flow[a^1])
		}
	}
	for v := 0; v < g.N; v++ {
		if v == s || v == t {
			continue
		}
		if out := g.Outflow(v); out != 0 {
			return 0, fmt.Errorf("flowgraph: vertex %d violates conservation (net outflow %d)", v, out)
		}
	}
	if got, want := g.Outflow(s), -g.Outflow(t); got != want {
		return 0, fmt.Errorf("flowgraph: source outflow %d != sink inflow %d", got, want)
	}
	return g.Outflow(s), nil
}

// Clone returns a deep copy of the graph, including flows.
func (g *Graph) Clone() *Graph {
	return &Graph{
		N:      g.N,
		To:     append([]int32(nil), g.To...),
		Cap:    append([]int64(nil), g.Cap...),
		Flow:   append([]int64(nil), g.Flow...),
		Start:  append([]int32(nil), g.Start...),
		ArcIdx: append([]int32(nil), g.ArcIdx...),
	}
}
