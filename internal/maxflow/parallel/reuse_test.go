package parallel

import (
	"testing"

	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
	"imflow/internal/xrand"
)

// TestParallelResetInterleavedReuse rebuilds two differently-sized graphs
// into one shared Graph and re-solves with a single reused Solver, calling
// Reset between solves, cross-checking each answer against Edmonds-Karp on
// a fresh clone and the flow certificate.
func TestParallelResetInterleavedReuse(t *testing.T) {
	rng := xrand.New(909)
	type problem struct {
		proto *flowgraph.Graph
		s, t  int
		want  int64
	}
	var problems []problem
	for _, n := range []int{12, 34} {
		proto, s, snk := randomGraph(rng, n, 4*n, 25)
		problems = append(problems, problem{proto, s, snk,
			maxflow.NewEdmondsKarp(proto.Clone()).Run(s, snk)})
	}
	for _, threads := range []int{1, 3} {
		g := flowgraph.New(2)
		solver := New(g, threads)
		order := xrand.New(17)
		for round := 0; round < 12; round++ {
			pb := problems[order.Intn(len(problems))]
			g.Resize(pb.proto.N)
			for a := 0; a < pb.proto.M(); a += 2 {
				g.AddEdge(int(pb.proto.To[a^1]), int(pb.proto.To[a]), pb.proto.Cap[a])
			}
			g.Freeze()
			solver.Reset()
			if got := solver.Run(pb.s, pb.t); got != pb.want {
				t.Fatalf("round %d threads %d: flow %d, want %d", round, threads, got, pb.want)
			}
			if _, err := g.CheckFlow(pb.s, pb.t); err != nil {
				t.Fatalf("round %d threads %d: %v", round, threads, err)
			}
			if err := maxflow.Certify(g, pb.s, pb.t); err != nil {
				t.Fatalf("round %d threads %d: certificate rejected on reused state: %v", round, threads, err)
			}
		}
	}
}
