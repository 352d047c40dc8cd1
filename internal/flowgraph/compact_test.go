package flowgraph

import (
	"testing"
	"testing/quick"

	"imflow/internal/xrand"
)

// csrMatchesLists verifies the CSR contract directly against the linked
// lists: for every vertex, ArcIdx[Start[v]:Start[v+1]] must list exactly
// the Head/Next chain of v, in order.
func csrMatchesLists(t *testing.T, g *Graph) {
	t.Helper()
	if !g.Compacted() {
		t.Fatal("graph not compacted")
	}
	if len(g.Start) != g.N+1 || len(g.ArcIdx) > g.M() {
		t.Fatalf("CSR sizes Start=%d ArcIdx=%d, want %d and <= %d", len(g.Start), len(g.ArcIdx), g.N+1, g.M())
	}
	if g.Start[0] != 0 || int(g.Start[g.N]) != len(g.ArcIdx) {
		t.Fatalf("CSR range endpoints Start[0]=%d Start[N]=%d ArcIdx len %d", g.Start[0], g.Start[g.N], len(g.ArcIdx))
	}
	for v := 0; v < g.N; v++ {
		pos := g.Start[v]
		for a := g.Head[v]; a >= 0; a = g.Next[a] {
			if pos >= g.Start[v+1] {
				t.Fatalf("vertex %d: CSR range shorter than its arc list", v)
			}
			if g.ArcIdx[pos] != a {
				t.Fatalf("vertex %d: CSR slot %d holds arc %d, list walk expects %d", v, pos, g.ArcIdx[pos], a)
			}
			pos++
		}
		if pos != g.Start[v+1] {
			t.Fatalf("vertex %d: CSR range longer than its arc list (%d vs %d)", v, pos, g.Start[v+1])
		}
	}
}

func randomArcGraph(rng *xrand.Source) *Graph {
	n := 2 + rng.Intn(20)
	g := New(n)
	m := rng.Intn(3 * n)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		g.AddEdge(u, v, int64(1+rng.Intn(50)))
	}
	if g.M() == 0 {
		g.AddEdge(0, 1, 5)
	}
	return g
}

// TestPropertyCompactIndexMatchesLists quick-checks the CSR contract on
// random graphs, including re-compaction after growth.
func TestPropertyCompactIndexMatchesLists(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := randomArcGraph(rng)
		g.Compact()
		csrMatchesLists(t, g)
		// Growth thaws; re-compacting must re-cover the new arcs.
		g.AddEdge(rng.Intn(g.N), rng.Intn(g.N-1)+1, 3)
		if g.Compacted() {
			t.Fatal("AddEdge left the graph frozen")
		}
		g.Compact()
		csrMatchesLists(t, g)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCompactPreservesPayload pins the index-stability half of the
// contract: compaction must not move or rewrite any arc — capacities,
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
	g.Compact()
	for a := 0; a < g.M(); a++ {
		if g.Cap[a] != before.Cap[a] || g.Flow[a] != before.Flow[a] || g.To[a] != before.To[a] {
			t.Fatalf("arc %d payload changed under Compact", a)
		}
		if g.Residual(a) != before.Residual(a) {
			t.Fatalf("arc %d residual changed under Compact", a)
		}
	}
}

// TestCompactInvalidation covers the thaw rules: Resize and AddEdge drop
// the frozen flag, Clone carries it.
func TestCompactInvalidation(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 3, 5)
	g.Compact()
	if !g.Compacted() {
		t.Fatal("Compact did not freeze")
	}
	c := g.Clone()
	if !c.Compacted() {
		t.Error("Clone dropped the frozen CSR")
	}
	csrMatchesLists(t, c)
	g.AddEdge(0, 2, 1)
	if g.Compacted() {
		t.Error("AddEdge kept the graph frozen")
	}
	g.Compact()
	g.Resize(4)
	if g.Compacted() {
		t.Error("Resize kept the graph frozen")
	}
}
