package maxflow

import "imflow/internal/flowgraph"

// Dinic is the blocking-flow method (Dinic 1970), referenced by the paper
// as one of the classic max-flow families. It is included both for
// cross-validation and as an ablation point against push-relabel in the
// benchmarks.
type Dinic struct {
	g       *flowgraph.Graph
	level   []int32
	iter    []int32 // CSR position of each vertex's current arc; Start[v+1] once exhausted
	queue   []int32
	metrics Metrics
}

// NewDinic returns an engine bound to g.
func NewDinic(g *flowgraph.Graph) *Dinic {
	return &Dinic{g: g, level: make([]int32, g.N), iter: make([]int32, g.N)}
}

// Name implements Engine.
func (d *Dinic) Name() string { return "dinic" }

// Metrics implements Engine.
func (d *Dinic) Metrics() *Metrics { return &d.metrics }

// Reset implements Engine: re-sync the level/iterator arrays with the
// (possibly rebuilt) graph.
// Amortized: (re)sizes engine-owned scratch that is reused across solves.
//
//imflow:allocok
func (d *Dinic) Reset() {
	if cap(d.level) < d.g.N {
		d.level = make([]int32, d.g.N)
		d.iter = make([]int32, d.g.N)
	}
	d.level = d.level[:d.g.N]
	d.iter = d.iter[:d.g.N]
	d.queue = d.queue[:0]
}

// Run augments the current flow to a maximum flow and returns its value.
// Per-solve scratch is engine-owned and amortized across reuse.
//
//imflow:allocok
func (d *Dinic) Run(s, t int) int64 {
	g := d.g
	if len(d.level) < g.N {
		d.level = make([]int32, g.N)
		d.iter = make([]int32, g.N)
	}
	for d.bfs(s, t) {
		copy(d.iter[:g.N], g.Start)
		for {
			pushed := d.dfs(s, t, int64(1)<<62)
			if pushed == 0 {
				break
			}
			d.metrics.Augmentations++
		}
	}
	return g.FlowValue(s)
}

// bfs builds the level graph; it returns false when t is unreachable.
func (d *Dinic) bfs(s, t int) bool {
	g := d.g
	for i := range d.level[:g.N] {
		d.level[i] = -1
	}
	d.level[s] = 0
	d.queue = append(d.queue[:0], int32(s))
	for head := 0; head < len(d.queue); head++ {
		v := d.queue[head]
		for _, a := range g.ArcIdx[g.Start[v]:g.Start[v+1]] {
			d.metrics.ArcScans++
			w := g.To[a]
			if d.level[w] < 0 && g.Residual(int(a)) > 0 {
				d.level[w] = d.level[v] + 1
				d.queue = append(d.queue, w)
			}
		}
	}
	return d.level[t] >= 0
}

// dfs sends one unit-of-work of blocking flow along level-increasing arcs.
func (d *Dinic) dfs(v, t int, limit int64) int64 {
	if v == t {
		return limit
	}
	g := d.g
	for ; d.iter[v] < g.Start[v+1]; d.iter[v]++ {
		a := g.ArcIdx[d.iter[v]]
		d.metrics.ArcScans++
		w := g.To[a]
		if g.Residual(int(a)) <= 0 || d.level[w] != d.level[v]+1 {
			continue
		}
		bottleneck := limit
		if r := g.Residual(int(a)); r < bottleneck {
			bottleneck = r
		}
		if pushed := d.dfs(int(w), t, bottleneck); pushed > 0 {
			g.Push(int(a), pushed)
			return pushed
		}
		d.level[w] = -1 // dead end; prune
	}
	return 0
}
