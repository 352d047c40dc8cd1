package maxflow

import (
	"testing"

	"imflow/internal/flowgraph"
	"imflow/internal/xrand"
)

// rebuildInto reconstructs proto's topology (zero flow) into g using the
// in-place Resize + AddEdge + Freeze path — the same rebuild discipline
// the retrieval solvers use between solves.
func rebuildInto(g, proto *flowgraph.Graph) {
	g.Resize(proto.N)
	for a := 0; a < proto.M(); a += 2 {
		g.AddEdge(int(proto.To[a^1]), int(proto.To[a]), proto.Cap[a])
	}
	g.Freeze()
}

// TestResetInterleavedReuse drives every engine through a randomized
// interleaving of two differently-shaped problems on one shared graph,
// calling Reset between solves, and cross-checks each answer against a
// fresh engine on a fresh graph plus the max-flow/min-cut certificate.
func TestResetInterleavedReuse(t *testing.T) {
	rng := xrand.New(2024)
	type problem struct {
		proto *flowgraph.Graph
		s, t  int
		want  int64
	}
	var problems []problem
	{
		gA, sA, tA := bipartiteRetrievalGraph(rng, 30, 6, 7)
		gB, sB, tB := bipartiteRetrievalGraph(rng, 55, 4, 15)
		problems = append(problems,
			problem{gA, sA, tA, NewEdmondsKarp(gA.Clone()).Run(sA, tA)},
			problem{gB, sB, tB, NewEdmondsKarp(gB.Clone()).Run(sB, tB)},
		)
	}
	for _, mk := range allEngines {
		// Start deliberately undersized so Reset must grow every scratch
		// array before the first solve.
		g := flowgraph.New(2)
		e := mk(g)
		order := xrand.New(7)
		for round := 0; round < 16; round++ {
			pb := problems[order.Intn(len(problems))]
			rebuildInto(g, pb.proto)
			e.Reset()
			if got := e.Run(pb.s, pb.t); got != pb.want {
				t.Fatalf("round %d: %s reused flow %d, want %d", round, e.Name(), got, pb.want)
			}
			if _, err := g.CheckFlow(pb.s, pb.t); err != nil {
				t.Fatalf("round %d: %s: %v", round, e.Name(), err)
			}
			if err := Certify(g, pb.s, pb.t); err != nil {
				t.Fatalf("round %d: %s certificate rejected on reused state: %v", round, e.Name(), err)
			}
		}
	}
}

// TestResetPreservesIncrementalSemantics: after Reset on an unchanged
// graph, Run must behave exactly like a second Run — augmenting the
// existing (already maximal) flow and reporting the same value.
func TestResetPreservesIncrementalSemantics(t *testing.T) {
	rng := xrand.New(31)
	gProto, s, snk := bipartiteRetrievalGraph(rng, 40, 5, 9)
	for _, mk := range allEngines {
		g := gProto.Clone()
		e := mk(g)
		want := e.Run(s, snk)
		e.Reset()
		if got := e.Run(s, snk); got != want {
			t.Fatalf("%s: flow %d after Reset, want %d", e.Name(), got, want)
		}
		if err := Certify(g, s, snk); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
	}
}
