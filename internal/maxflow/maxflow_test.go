package maxflow

import (
	"testing"

	"imflow/internal/flowgraph"
	"imflow/internal/xrand"
)

// allEngines lists a fresh-constructor for every sequential engine.
var allEngines = []func(*flowgraph.Graph) Engine{
	func(g *flowgraph.Graph) Engine { return NewFordFulkerson(g) },
	func(g *flowgraph.Graph) Engine { return NewEdmondsKarp(g) },
	func(g *flowgraph.Graph) Engine { return NewDinic(g) },
	func(g *flowgraph.Graph) Engine { return NewPushRelabel(g) },
}

// buildFixed returns the classic CLRS example network with max flow 23,
// frozen.
func buildFixed() (*flowgraph.Graph, int, int) {
	g := flowgraph.New(6)
	s, t := 0, 5
	g.AddEdge(0, 1, 16)
	g.AddEdge(0, 2, 13)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 1, 4)
	g.AddEdge(1, 3, 12)
	g.AddEdge(3, 2, 9)
	g.AddEdge(2, 4, 14)
	g.AddEdge(4, 3, 7)
	g.AddEdge(3, 5, 20)
	g.AddEdge(4, 5, 4)
	g.Freeze()
	return g, s, t
}

func TestEnginesOnFixedNetwork(t *testing.T) {
	for _, mk := range allEngines {
		g, s, snk := buildFixed()
		e := mk(g)
		if got := e.Run(s, snk); got != 23 {
			t.Errorf("%s: flow %d, want 23", e.Name(), got)
		}
		if v, err := g.CheckFlow(s, snk); err != nil || v != 23 {
			t.Errorf("%s: invalid final flow: %d, %v", e.Name(), v, err)
		}
	}
}

func TestEnginesOnDisconnectedSink(t *testing.T) {
	for _, mk := range allEngines {
		g := flowgraph.New(4)
		g.AddEdge(0, 1, 5)
		g.AddEdge(2, 3, 5) // sink side unreachable from source side
		g.Freeze()
		e := mk(g)
		if got := e.Run(0, 3); got != 0 {
			t.Errorf("%s: flow %d on disconnected network, want 0", e.Name(), got)
		}
		if _, err := g.CheckFlow(0, 3); err != nil {
			t.Errorf("%s: invalid flow: %v", e.Name(), err)
		}
	}
}

// randomGraph builds a frozen random layered-ish network with some back
// edges.
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

func TestEnginesAgreeOnRandomGraphs(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(30)
		m := 1 + rng.Intn(4*n)
		gProto, s, snk := randomGraph(rng, n, m, 20)
		ref := NewEdmondsKarp(gProto.Clone())
		want := ref.Run(s, snk)
		for _, mk := range allEngines {
			g := gProto.Clone()
			e := mk(g)
			if got := e.Run(s, snk); got != want {
				t.Fatalf("trial %d: %s flow %d, want %d (n=%d m=%d)", trial, e.Name(), got, want, n, m)
			}
			if _, err := g.CheckFlow(s, snk); err != nil {
				t.Fatalf("trial %d: %s produced invalid flow: %v", trial, e.Name(), err)
			}
			if err := Certify(g, s, snk); err != nil {
				t.Fatalf("trial %d: %s certificate rejected: %v", trial, e.Name(), err)
			}
		}
	}
}

// TestRunFromExistingFlow verifies the integrated property every engine
// must provide: running from a partial (feasible) flow reaches the same
// maximum as running from zero.
func TestRunFromExistingFlow(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(20)
		m := 1 + rng.Intn(3*n)
		gProto, s, snk := randomGraph(rng, n, m, 15)
		want := NewEdmondsKarp(gProto.Clone()).Run(s, snk)
		for _, mk := range allEngines {
			g := gProto.Clone()
			// Seed a partial flow: solve the same network with halved
			// capacities and install the resulting (feasible, typically
			// non-maximal) flow.
			half := g.Clone()
			for a := 0; a < half.M(); a += 2 {
				half.SetCap(a, half.Cap[a]/2)
			}
			NewEdmondsKarp(half).Run(s, snk)
			copy(g.Flow, half.Flow)
			if _, err := g.CheckFlow(s, snk); err != nil {
				t.Fatalf("seed flow invalid: %v", err)
			}
			e := mk(g)
			if got := e.Run(s, snk); got != want {
				t.Fatalf("trial %d: %s from partial flow got %d, want %d", trial, e.Name(), got, want)
			}
			if _, err := g.CheckFlow(s, snk); err != nil {
				t.Fatalf("trial %d: %s invalid flow from partial start: %v", trial, e.Name(), err)
			}
		}
	}
}

// TestCapacityGrowthConservation exercises the exact usage pattern of the
// integrated retrieval algorithms: solve, raise some capacities, re-solve
// without clearing flows, and compare against a from-scratch solve.
func TestCapacityGrowthConservation(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(20)
		m := 1 + rng.Intn(3*n)
		g, s, snk := randomGraph(rng, n, m, 10)
		pr := NewPushRelabel(g)
		pr.Run(s, snk)
		// Raise a random subset of capacities.
		for a := 0; a < g.M(); a += 2 {
			if rng.Intn(3) == 0 {
				g.SetCap(a, g.Cap[a]+int64(rng.Intn(10)))
			}
		}
		want := NewEdmondsKarp(g.Clone()).Run(s, snk) // clone keeps old flows; EK augments them
		fresh := g.Clone()
		fresh.ZeroFlows()
		wantFresh := NewEdmondsKarp(fresh).Run(s, snk)
		if want != wantFresh {
			t.Fatalf("trial %d: EK from old flow %d != EK from zero %d", trial, want, wantFresh)
		}
		if got := pr.Run(s, snk); got != want {
			t.Fatalf("trial %d: push-relabel conserved run got %d, want %d", trial, got, want)
		}
		if _, err := g.CheckFlow(s, snk); err != nil {
			t.Fatalf("trial %d: invalid flow after growth: %v", trial, err)
		}
	}
}

func TestMetricsAccumulate(t *testing.T) {
	g, s, snk := buildFixed()
	pr := NewPushRelabel(g)
	pr.Run(s, snk)
	m := pr.Metrics()
	if m.Pushes == 0 {
		t.Error("expected pushes to be counted")
	}
	if m.GlobalRelabels == 0 {
		t.Error("expected at least the initial global relabel")
	}
	var sum Metrics
	sum.Add(m)
	sum.Add(m)
	if sum.Pushes != 2*m.Pushes {
		t.Errorf("Add: got %d pushes, want %d", sum.Pushes, 2*m.Pushes)
	}
}
