package maxflow

import "imflow/internal/flowgraph"

// MinCut returns the source side of a minimum s-t cut of the graph's
// *current* flow state: reachable[v] is true iff v is reachable from s in
// the residual graph. When the current flow is maximum, the arcs from
// reachable to non-reachable vertices form a minimum cut whose capacity
// equals the flow value (max-flow/min-cut theorem); the caller is expected
// to have run an engine first. It is ResidualReach into a fresh slice.
func MinCut(g *flowgraph.Graph, s int) (reachable []bool) {
	reachable = make([]bool, g.N)
	ResidualReach(g, s, reachable, nil)
	return reachable
}

// ResidualReach marks in reached (g.N entries, overwritten) every vertex
// reachable from s over arcs with residual capacity, by a breadth-first
// search of the CSR index. It returns the reached vertices in visit
// order, s first, in queue's backing array. Under a maximum flow the
// reached set is the source side of the minimum cut that every maximum
// flow shares, the one with the fewest vertices. A caller that passes
// back the returned queue and a queue of g.N capacity allocates nothing.
// Amortized: the queue grows only while its capacity is short of g.N.
//
//imflow:allocok
func ResidualReach(g *flowgraph.Graph, s int, reached []bool, queue []int32) []int32 {
	reached = reached[:g.N]
	for i := range reached {
		reached[i] = false
	}
	reached[s] = true
	queue = append(queue[:0], int32(s))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, a := range g.ArcIdx[g.Start[v]:g.Start[v+1]] {
			if w := g.To[a]; !reached[w] && g.Residual(int(a)) > 0 {
				reached[w] = true
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// CutCapacity sums the capacities of the arcs crossing the cut from the
// reachable side to the rest. For a maximum flow this equals the flow
// value.
func CutCapacity(g *flowgraph.Graph, reachable []bool) int64 {
	var sum int64
	for a := 0; a < g.M(); a += 2 { // forward arcs only
		u := g.To[a^1]
		v := g.To[a]
		if reachable[u] && !reachable[v] {
			sum += g.Cap[a]
		}
	}
	return sum
}
