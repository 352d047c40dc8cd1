package flowgraph

import (
	"testing"
	"testing/quick"

	"imflow/internal/xrand"
)

// csrMatchesTails verifies the CSR contract against its definition: for
// every vertex v, ArcIdx[Start[v]:Start[v+1]] must list exactly the arcs
// whose tail is v, in descending id.
func csrMatchesTails(t *testing.T, g *Graph) {
	t.Helper()
	if len(g.Start) != g.N+1 || len(g.ArcIdx) != g.M() {
		t.Fatalf("CSR sizes Start=%d ArcIdx=%d, want %d and %d", len(g.Start), len(g.ArcIdx), g.N+1, g.M())
	}
	if g.Start[0] != 0 || int(g.Start[g.N]) != g.M() {
		t.Fatalf("CSR range endpoints Start[0]=%d Start[N]=%d, %d arcs", g.Start[0], g.Start[g.N], g.M())
	}
	for v := 0; v < g.N; v++ {
		pos := g.Start[v]
		for a := g.M() - 1; a >= 0; a-- {
			if int(g.To[a^1]) != v {
				continue
			}
			if pos >= g.Start[v+1] {
				t.Fatalf("vertex %d: CSR range shorter than its arc set", v)
			}
			if g.ArcIdx[pos] != int32(a) {
				t.Fatalf("vertex %d: CSR slot %d holds arc %d, descending ids expect %d", v, pos, g.ArcIdx[pos], a)
			}
			pos++
		}
		if pos != g.Start[v+1] {
			t.Fatalf("vertex %d: CSR range longer than its arc set (%d vs %d)", v, pos, g.Start[v+1])
		}
	}
}

// addRandomArcs adds up to 3n random non-loop edges to g, and one edge
// 0->1 if none landed.
func addRandomArcs(rng *xrand.Source, g *Graph) {
	m := rng.Intn(3 * g.N)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(g.N), rng.Intn(g.N)
		if u == v {
			continue
		}
		g.AddEdge(u, v, int64(1+rng.Intn(50)))
	}
	if g.M() == 0 {
		g.AddEdge(0, 1, 5)
	}
}

func randomArcGraph(rng *xrand.Source) *Graph {
	g := New(2 + rng.Intn(20))
	addRandomArcs(rng, g)
	return g
}

// TestPropertyCompactIndexMatchesLists quick-checks the CSR contract on
// random graphs, and again after Resize rebuilds the graph in place in
// another shape.
func TestPropertyCompactIndexMatchesLists(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := randomArcGraph(rng)
		g.Freeze()
		csrMatchesTails(t, g)
		g.Resize(2 + rng.Intn(20))
		addRandomArcs(rng, g)
		g.Freeze()
		csrMatchesTails(t, g)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCompactPreservesPayload pins the index-stability half of the
// contract: freezing must not move or rewrite any arc — capacities,
// flows, endpoints, and residuals stay bit-identical under the original
// arc indices.
func TestCompactPreservesPayload(t *testing.T) {
	rng := xrand.New(99)
	g := randomArcGraph(rng)
	// Put some flow on the arcs so the preservation claim is non-trivial.
	for a := 0; a < g.M(); a += 2 {
		if g.Cap[a] > 1 {
			g.Push(a, g.Cap[a]/2)
		}
	}
	before := g.Clone()
	g.Freeze()
	for a := 0; a < g.M(); a++ {
		if g.Cap[a] != before.Cap[a] || g.Flow[a] != before.Flow[a] || g.To[a] != before.To[a] {
			t.Fatalf("arc %d payload changed under Freeze", a)
		}
		if g.Residual(a) != before.Residual(a) {
			t.Fatalf("arc %d residual changed under Freeze", a)
		}
	}
}

// TestCompactInvalidation covers the edit rule: AddEdge and Resize empty
// the index, so scanning a graph edited after its last Freeze panics
// instead of reading a stale index. Clone carries the index.
func TestCompactInvalidation(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 3, 5)
	g.Freeze()
	csrMatchesTails(t, g.Clone())
	for _, edit := range []struct {
		name string
		do   func()
	}{
		{"AddEdge", func() { g.AddEdge(0, 2, 1) }},
		{"Resize", func() { g.Resize(4) }},
	} {
		g.Freeze()
		edit.do()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Outflow after %s read a stale index", edit.name)
				}
			}()
			g.Outflow(0)
		}()
	}
}

// TestFreezeRebuildAllocatesNothing pins the in-place rebuild path the
// retrieval solvers take once per query: a Resize + AddEdge + Freeze
// rebuild of the same shape reuses every backing array.
func TestFreezeRebuildAllocatesNothing(t *testing.T) {
	proto := randomArcGraph(xrand.New(7))
	g := New(proto.N)
	rebuild := func() {
		g.Resize(proto.N)
		for a := 0; a < proto.M(); a += 2 {
			g.AddEdge(int(proto.To[a^1]), int(proto.To[a]), proto.Cap[a])
		}
		g.Freeze()
	}
	rebuild()
	if allocs := testing.AllocsPerRun(100, rebuild); allocs != 0 {
		t.Errorf("same-shape rebuild allocated %v times per call", allocs)
	}
	if g.M() != proto.M() {
		t.Fatalf("rebuild left %d arcs, want %d: Resize kept old arcs", g.M(), proto.M())
	}
	csrMatchesTails(t, g)
}
