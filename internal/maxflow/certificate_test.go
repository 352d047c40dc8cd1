// Certificate cross-checks: every engine — sequential and parallel — must
// leave behind a flow whose induced min cut verifies as a full
// max-flow = min-cut certificate on randomized graphs. This file is an
// external test package so it can import the parallel solver without a
// cycle.
package maxflow_test

import (
	"testing"

	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
	"imflow/internal/maxflow/parallel"
	"imflow/internal/xrand"
)

// certEngines covers every sequential engine plus the parallel solver at
// one and several threads.
var certEngines = []func(*flowgraph.Graph) maxflow.Engine{
	func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewFordFulkerson(g) },
	func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewEdmondsKarp(g) },
	func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewDinic(g) },
	func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewPushRelabel(g) },
	func(g *flowgraph.Graph) maxflow.Engine { return parallel.New(g, 1) },
	func(g *flowgraph.Graph) maxflow.Engine { return parallel.New(g, 4) },
}

// sprinkle builds a frozen random digraph with no arcs into s or out of t.
func sprinkle(rng *xrand.Source, n, m int, maxCap int64) (*flowgraph.Graph, int, int) {
	g := flowgraph.New(n)
	s, t := 0, n-1
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || v == s || u == t {
			continue
		}
		g.AddEdge(u, v, int64(rng.Intn(int(maxCap)))+1)
	}
	g.Freeze()
	return g, s, t
}

func TestMinCutCertificateOnRandomGraphs(t *testing.T) {
	rng := xrand.New(2012)
	trials := 120
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(28)
		m := 1 + rng.Intn(4*n)
		gProto, s, snk := sprinkle(rng, n, m, 25)
		want := maxflow.NewEdmondsKarp(gProto.Clone()).Run(s, snk)
		for _, mk := range certEngines {
			g := gProto.Clone()
			e := mk(g)
			if got := e.Run(s, snk); got != want {
				t.Fatalf("trial %d: %s flow %d, want %d", trial, e.Name(), got, want)
			}
			value, err := maxflow.VerifyFlow(g, s, snk)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, e.Name(), err)
			}
			if value != want {
				t.Fatalf("trial %d: %s audit value %d, want %d", trial, e.Name(), value, want)
			}
			cut := maxflow.MinCut(g, s)
			if err := maxflow.VerifyCertificate(g, cut, s, snk); err != nil {
				t.Fatalf("trial %d: %s certificate rejected: %v", trial, e.Name(), err)
			}
			if cutCap := maxflow.CutCapacity(g, cut); cutCap != want {
				t.Fatalf("trial %d: %s cut capacity %d, want %d", trial, e.Name(), cutCap, want)
			}
		}
	}
}

// TestCertificateSurvivesCapacityGrowth follows the integrated retrieval
// pattern: solve, raise capacities, re-solve conserving flow — the
// certificate must hold at every step.
func TestCertificateSurvivesCapacityGrowth(t *testing.T) {
	rng := xrand.New(424)
	for trial := 0; trial < 40; trial++ {
		g, s, snk := sprinkle(rng, 4+rng.Intn(20), 1+rng.Intn(60), 10)
		for _, mk := range certEngines {
			gc := g.Clone()
			e := mk(gc)
			e.Run(s, snk)
			for round := 0; round < 3; round++ {
				if err := maxflow.Certify(gc, s, snk); err != nil {
					t.Fatalf("trial %d round %d: %s: %v", trial, round, e.Name(), err)
				}
				for a := 0; a < gc.M(); a += 2 {
					if rng.Intn(4) == 0 {
						gc.SetCap(a, gc.Cap[a]+int64(rng.Intn(6)))
					}
				}
				e.Run(s, snk)
			}
		}
	}
}
