package parallel

import (
	"testing"

	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
	"imflow/internal/xrand"
)

func randomGraph(rng *xrand.Source, n, m int, maxCap int64) (*flowgraph.Graph, int, int) {
	g := flowgraph.New(n)
	s, t := 0, n-1
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || v == s || u == t {
			continue
		}
		g.AddEdge(u, v, int64(rng.Intn(int(maxCap)))+1)
	}
	g.Freeze()
	return g, s, t
}

func TestParallelMatchesSequential(t *testing.T) {
	rng := xrand.New(1234)
	for trial := 0; trial < 150; trial++ {
		n := 4 + rng.Intn(40)
		m := 1 + rng.Intn(4*n)
		gProto, s, snk := randomGraph(rng, n, m, 25)
		want := maxflow.NewEdmondsKarp(gProto.Clone()).Run(s, snk)
		for _, threads := range []int{1, 2, 4} {
			g := gProto.Clone()
			p := New(g, threads)
			if got := p.Run(s, snk); got != want {
				t.Fatalf("trial %d threads %d: flow %d, want %d", trial, threads, got, want)
			}
			if _, err := g.CheckFlow(s, snk); err != nil {
				t.Fatalf("trial %d threads %d: invalid flow: %v", trial, threads, err)
			}
		}
	}
}

func TestParallelConservesFlowAcrossCapacityGrowth(t *testing.T) {
	rng := xrand.New(4321)
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(25)
		m := 1 + rng.Intn(3*n)
		g, s, snk := randomGraph(rng, n, m, 10)
		p := New(g, 2)
		p.Run(s, snk)
		for a := 0; a < g.M(); a += 2 {
			if rng.Intn(3) == 0 {
				g.SetCap(a, g.Cap[a]+int64(rng.Intn(8)))
			}
		}
		fresh := g.Clone()
		fresh.ZeroFlows()
		want := maxflow.NewEdmondsKarp(fresh).Run(s, snk)
		if got := p.Run(s, snk); got != want {
			t.Fatalf("trial %d: conserved parallel run got %d, want %d", trial, got, want)
		}
		if _, err := g.CheckFlow(s, snk); err != nil {
			t.Fatalf("trial %d: invalid flow: %v", trial, err)
		}
	}
}

// TestParallelBipartiteRetrievalShape exercises the solver on graphs shaped
// like the retrieval networks (unit bucket arcs, capacitated disk arcs),
// where contention concentrates on the disk->sink arcs.
func TestParallelBipartiteRetrievalShape(t *testing.T) {
	rng := xrand.New(777)
	for trial := 0; trial < 60; trial++ {
		q := 10 + rng.Intn(200)
		nd := 2 + rng.Intn(20)
		g := flowgraph.New(q + nd + 2)
		s, snk := 0, q+nd+1
		for i := 0; i < q; i++ {
			g.AddEdge(s, 1+i, 1)
			// two replicas
			d1 := rng.Intn(nd)
			d2 := rng.Intn(nd)
			g.AddEdge(1+i, 1+q+d1, 1)
			if d2 != d1 {
				g.AddEdge(1+i, 1+q+d2, 1)
			}
		}
		for d := 0; d < nd; d++ {
			g.AddEdge(1+q+d, snk, int64(rng.Intn(q/nd+2)))
		}
		g.Freeze()
		want := maxflow.NewEdmondsKarp(g.Clone()).Run(s, snk)
		for _, threads := range []int{2, 4} {
			gc := g.Clone()
			p := New(gc, threads)
			if got := p.Run(s, snk); got != want {
				t.Fatalf("trial %d threads %d: flow %d, want %d", trial, threads, got, want)
			}
			if _, err := gc.CheckFlow(s, snk); err != nil {
				t.Fatalf("trial %d: invalid flow: %v", trial, err)
			}
		}
	}
}

func TestParallelZeroActive(t *testing.T) {
	// A network whose source has no outgoing capacity terminates
	// immediately.
	g := flowgraph.New(3)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 5)
	g.Freeze()
	p := New(g, 4)
	if got := p.Run(0, 2); got != 0 {
		t.Fatalf("flow %d, want 0", got)
	}
}

func TestThreadsClampedToOne(t *testing.T) {
	g := flowgraph.New(2)
	g.AddEdge(0, 1, 3)
	g.Freeze()
	p := New(g, 0)
	if p.Threads() != 1 {
		t.Fatalf("threads %d, want 1", p.Threads())
	}
	if got := p.Run(0, 1); got != 3 {
		t.Fatalf("flow %d, want 3", got)
	}
}

// TestParallelStressManyRuns exercises the integrated usage aggressively:
// repeated conserved runs with randomly growing capacities on a larger
// retrieval-shaped graph, checked against Edmonds-Karp each round.
func TestParallelStressManyRuns(t *testing.T) {
	rng := xrand.New(20260705)
	q, nd := 300, 20
	g := flowgraph.New(q + nd + 2)
	s, snk := 0, q+nd+1
	var sinkArcs []int
	for i := 0; i < q; i++ {
		g.AddEdge(s, 1+i, 1)
		g.AddEdge(1+i, 1+q+rng.Intn(nd), 1)
		g.AddEdge(1+i, 1+q+nd/2+rng.Intn(nd/2), 1)
	}
	for d := 0; d < nd; d++ {
		sinkArcs = append(sinkArcs, g.AddEdge(1+q+d, snk, 0))
	}
	g.Freeze()
	p := New(g, 4)
	for round := 0; round < 12; round++ {
		// Raise a random subset of sink capacities.
		for _, a := range sinkArcs {
			if rng.Intn(2) == 0 {
				g.SetCap(a, g.Cap[a]+int64(rng.Intn(4)))
			}
		}
		got := p.Run(s, snk)
		fresh := g.Clone()
		fresh.ZeroFlows()
		want := maxflow.NewEdmondsKarp(fresh).Run(s, snk)
		if got != want {
			t.Fatalf("round %d: parallel %d, want %d", round, got, want)
		}
		if _, err := g.CheckFlow(s, snk); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestParallelFlowCycleDrain drives the preflow-to-flow conversion through
// its cycle-cancelling path: a graph with a directed cycle that the
// preflow can saturate while the excess is later stranded.
func TestParallelFlowCycleDrain(t *testing.T) {
	// s -> a (big), a -> b -> c -> a (cycle), b -> t (tiny).
	g := flowgraph.New(5)
	s, a, b, c, tt := 0, 1, 2, 3, 4
	g.AddEdge(s, a, 10)
	g.AddEdge(a, b, 10)
	g.AddEdge(b, c, 10)
	g.AddEdge(c, a, 10)
	g.AddEdge(b, tt, 2)
	g.Freeze()
	for _, threads := range []int{1, 2, 4} {
		gc := g.Clone()
		p := New(gc, threads)
		if got := p.Run(s, tt); got != 2 {
			t.Fatalf("threads %d: flow %d, want 2", threads, got)
		}
		if _, err := gc.CheckFlow(s, tt); err != nil {
			t.Fatalf("threads %d: %v", threads, err)
		}
	}
}
