package maxflow

import (
	"testing"

	"imflow/internal/flowgraph"
	"imflow/internal/xrand"
)

// bipartiteRetrievalGraph builds a frozen graph shaped like the retrieval
// networks: unit source and replica arcs, capacitated disk arcs.
func bipartiteRetrievalGraph(rng *xrand.Source, q, nd int, sinkCap int64) (*flowgraph.Graph, int, int) {
	g := flowgraph.New(q + nd + 2)
	s, t := 0, q+nd+1
	for i := 0; i < q; i++ {
		g.AddEdge(s, 1+i, 1)
		d1 := rng.Intn(nd)
		d2 := rng.Intn(nd)
		g.AddEdge(1+i, 1+q+d1, 1)
		if d2 != d1 {
			g.AddEdge(1+i, 1+q+d2, 1)
		}
	}
	for d := 0; d < nd; d++ {
		g.AddEdge(1+q+d, t, sinkCap)
	}
	g.Freeze()
	return g, s, t
}

func TestEnginesOnRetrievalShapedGraphs(t *testing.T) {
	rng := xrand.New(88)
	for trial := 0; trial < 40; trial++ {
		q := 5 + rng.Intn(120)
		nd := 2 + rng.Intn(12)
		sinkCap := int64(rng.Intn(q/nd+2)) + 1
		gProto, s, snk := bipartiteRetrievalGraph(rng, q, nd, sinkCap)
		want := NewEdmondsKarp(gProto.Clone()).Run(s, snk)
		for _, mk := range allEngines {
			g := gProto.Clone()
			e := mk(g)
			if got := e.Run(s, snk); got != want {
				t.Fatalf("trial %d: %s flow %d, want %d", trial, e.Name(), got, want)
			}
			if _, err := g.CheckFlow(s, snk); err != nil {
				t.Fatalf("trial %d: %s: %v", trial, e.Name(), err)
			}
			if err := Certify(g, s, snk); err != nil {
				t.Fatalf("trial %d: %s certificate rejected: %v", trial, e.Name(), err)
			}
		}
	}
}

// TestRepeatedRunsAreIdempotent: calling Run again on a maximal flow must
// do no harm and return the same value, for every engine.
func TestRepeatedRunsAreIdempotent(t *testing.T) {
	rng := xrand.New(101)
	gProto, s, snk := bipartiteRetrievalGraph(rng, 40, 5, 9)
	for _, mk := range allEngines {
		g := gProto.Clone()
		e := mk(g)
		first := e.Run(s, snk)
		second := e.Run(s, snk)
		if first != second {
			t.Errorf("%s: repeated run changed flow value %d -> %d", e.Name(), first, second)
		}
		if _, err := g.CheckFlow(s, snk); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
}

// TestEngineNamesDistinct: names are used as map keys and labels.
func TestEngineNamesDistinct(t *testing.T) {
	g := flowgraph.New(2)
	g.AddEdge(0, 1, 1)
	seen := map[string]bool{}
	for _, mk := range allEngines {
		name := mk(g).Name()
		if name == "" || seen[name] {
			t.Errorf("duplicate or empty engine name %q", name)
		}
		seen[name] = true
	}
}

func TestPushRelabelIntervalVariants(t *testing.T) {
	rng := xrand.New(56)
	gProto, s, snk := bipartiteRetrievalGraph(rng, 60, 6, 5)
	want := NewEdmondsKarp(gProto.Clone()).Run(s, snk)
	for _, interval := range []int{-1, 0, 3} {
		g := gProto.Clone()
		pr := NewPushRelabel(g)
		pr.GlobalRelabelInterval = interval
		if got := pr.Run(s, snk); got != want {
			t.Errorf("interval %d: flow %d, want %d", interval, got, want)
		}
	}
}

// TestMetricsPopulatedPerEngine: every engine must account its work.
func TestMetricsPopulatedPerEngine(t *testing.T) {
	rng := xrand.New(99)
	gProto, s, snk := bipartiteRetrievalGraph(rng, 50, 5, 8)
	for _, mk := range allEngines {
		g := gProto.Clone()
		e := mk(g)
		e.Run(s, snk)
		m := e.Metrics()
		if m.ArcScans == 0 {
			t.Errorf("%s: no arc scans recorded", e.Name())
		}
		switch e.(type) {
		case *FordFulkerson, *EdmondsKarp, *Dinic:
			if m.Augmentations == 0 {
				t.Errorf("%s: no augmentations recorded", e.Name())
			}
		default:
			if m.Pushes == 0 {
				t.Errorf("%s: no pushes recorded", e.Name())
			}
		}
	}
}

// TestZeroCapacitySinkArcs: all sink arcs zero -> flow 0, no crash.
func TestZeroCapacitySinkArcs(t *testing.T) {
	rng := xrand.New(11)
	g, s, snk := bipartiteRetrievalGraph(rng, 20, 4, 0)
	for _, mk := range allEngines {
		gc := g.Clone()
		if got := mk(gc).Run(s, snk); got != 0 {
			t.Errorf("flow %d with zero sink capacity", got)
		}
	}
}

// TestSelfLoopAndParallelEdges: the representation tolerates parallel
// edges; engines must handle them.
func TestParallelEdges(t *testing.T) {
	g := flowgraph.New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 2, 4)
	g.Freeze()
	for _, mk := range allEngines {
		gc := g.Clone()
		if got := mk(gc).Run(0, 2); got != 4 {
			t.Errorf("%s: flow %d, want 4", mk(gc).Name(), got)
		}
	}
}

// TestPushRelabelInternalInvariants drives the engine and then checks its
// internal no-residual-excess invariant directly.
func TestPushRelabelInternalInvariants(t *testing.T) {
	rng := xrand.New(123)
	g, s, snk := bipartiteRetrievalGraph(rng, 30, 4, 6)
	pr := NewPushRelabel(g)
	pr.Run(s, snk)
	pr.sanityCheck(s, snk) // panics on violation
}
