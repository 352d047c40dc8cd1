// Package maxflow implements the sequential maximum-flow engines used by
// the retrieval algorithms: DFS Ford-Fulkerson, Edmonds-Karp, Dinic, and a
// FIFO push-relabel with the exact-height (global relabeling) and gap
// heuristics of Cherkassky & Goldberg.
//
// Every engine runs *from the current flow* of the graph rather than from
// zero: given a feasible flow it augments it to a maximum flow. That is the
// property the paper's integrated algorithms exploit — after raising edge
// capacities, the previous run's flow is still feasible, so the next run
// only computes the missing flow. A black-box run is simply
// g.ZeroFlows() followed by Run.
package maxflow

import "imflow/internal/flowgraph"

// Engine is a maximum-flow solver operating on a shared residual graph.
// Run augments the graph's current flow to a maximum s-t flow and returns
// the resulting flow value. It scans only the graph's CSR index, so the
// graph must be frozen (flowgraph.Freeze) since its last edit.
//
// Reset prepares the engine for reuse after its graph has been rebuilt in
// place (flowgraph.Resize, AddEdge calls, then Freeze): internal
// scratch arrays are re-synced to the graph's current dimensions —
// growing only when the graph outgrew them, never reallocating otherwise
// — and any state carried across Run calls (visitation stamps, queues)
// is cleared. Metrics survive Reset; they are cumulative for the
// engine's lifetime. The integrated retrieval solvers call Reset once
// per query so the steady-state solve path performs no allocations.
type Engine interface {
	Name() string
	Run(s, t int) int64
	Reset()
	Metrics() *Metrics
}

// Metrics counts the elementary operations performed by an engine since it
// was created (cumulative across Run calls).
type Metrics struct {
	Augmentations  int64 // augmenting paths found (path-based engines)
	Pushes         int64 // push operations (push-relabel engines)
	Relabels       int64 // relabel operations
	GlobalRelabels int64 // exact-height recomputations
	ArcScans       int64 // arcs examined
}

// Add accumulates other into m.
func (m *Metrics) Add(other *Metrics) {
	m.Augmentations += other.Augmentations
	m.Pushes += other.Pushes
	m.Relabels += other.Relabels
	m.GlobalRelabels += other.GlobalRelabels
	m.ArcScans += other.ArcScans
}

// inflow returns the net flow into vertex t.
func inflow(g *flowgraph.Graph, t int) int64 {
	return -g.Outflow(t)
}
