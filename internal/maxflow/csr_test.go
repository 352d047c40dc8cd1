// The engines' side of the CSR contract: a graph is built, frozen once,
// then scanned, and every engine reads only the frozen index, so running
// an engine on a graph edited after its last Freeze panics instead of
// reading a stale index. This file is an external test package so it can
// reach the parallel solver without a cycle.
package maxflow_test

import (
	"testing"

	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
	"imflow/internal/maxflow/parallel"
	"imflow/internal/xrand"
)

// csrEngines are the push-relabel engines, sequential and parallel. The
// parallel solver assigns flow racily, so it is audited with VerifyFlow
// instead of the full min-cut certificate.
var csrEngines = []struct {
	name     string
	mk       func(*flowgraph.Graph) maxflow.Engine
	parallel bool
}{
	{"push-relabel", func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewPushRelabel(g) }, false},
	{"parallel(1)", func(g *flowgraph.Graph) maxflow.Engine { return parallel.New(g, 1) }, true},
	{"parallel(2)", func(g *flowgraph.Graph) maxflow.Engine { return parallel.New(g, 2) }, true},
	{"parallel(4)", func(g *flowgraph.Graph) maxflow.Engine { return parallel.New(g, 4) }, true},
}

// TestPropertyCompactOnRun interleaves capacity raises and Run on one
// frozen graph. Each Run must reach Edmonds-Karp's value on a clone of
// the pre-run graph and leave a verified flow.
func TestPropertyCompactOnRun(t *testing.T) {
	rng := xrand.New(4096)
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(24)
		m := 1 + rng.Intn(4*n)
		proto, s, snk := sprinkle(rng, n, m, 20)
		for _, tc := range csrEngines {
			g := proto.Clone()
			e := tc.mk(g)
			for round := 0; round < 4; round++ {
				want := maxflow.NewEdmondsKarp(g.Clone()).Run(s, snk)
				if got := e.Run(s, snk); got != want {
					t.Fatalf("%s trial %d round %d: flow %d, Edmonds-Karp %d", tc.name, trial, round, got, want)
				}
				if tc.parallel {
					if value, err := maxflow.VerifyFlow(g, s, snk); err != nil || value != want {
						t.Fatalf("%s trial %d round %d: audit value %d err %v, want %d", tc.name, trial, round, value, err, want)
					}
				} else if err := maxflow.Certify(g, s, snk); err != nil {
					t.Fatalf("%s trial %d round %d: %v", tc.name, trial, round, err)
				}

				// Raise a few forward capacities (the retrieval
				// binary-search pattern).
				for a := 0; a < g.M(); a += 2 {
					if rng.Intn(3) == 0 {
						g.SetCap(a, g.Cap[a]+int64(1+rng.Intn(6)))
					}
				}
			}
		}
	}
}

// TestRunPanicsOnEditedGraph pins the edit rule: AddEdge empties the CSR
// index, so every engine's Run on a graph edited after its last Freeze
// panics instead of scanning a stale index.
func TestRunPanicsOnEditedGraph(t *testing.T) {
	for _, mk := range certEngines {
		g, s, snk := sprinkle(xrand.New(1), 8, 20, 5)
		e := mk(g)
		g.AddEdge(s, snk, 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s ran on a graph edited after Freeze", e.Name())
				}
			}()
			e.Run(s, snk)
		}()
	}
}

// TestCompactParallelEngineValue covers the parallel solver on frozen
// graphs at 1, 2 and 4 threads: scheduling is nondeterministic, so the
// assertion is value equality plus a full flow-conservation audit.
func TestCompactParallelEngineValue(t *testing.T) {
	rng := xrand.New(8192)
	trials := 30
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		proto, s, snk := sprinkle(rng, 4+rng.Intn(24), 1+rng.Intn(80), 20)
		want := maxflow.NewEdmondsKarp(proto.Clone()).Run(s, snk)
		for _, threads := range []int{1, 2, 4} {
			g := proto.Clone()
			e := parallel.New(g, threads)
			if got := e.Run(s, snk); got != want {
				t.Fatalf("trial %d: parallel(%d) on CSR graph flow %d, want %d", trial, threads, got, want)
			}
			if value, err := maxflow.VerifyFlow(g, s, snk); err != nil || value != want {
				t.Fatalf("trial %d: parallel(%d) CSR audit: value %d err %v, want %d", trial, threads, value, err, want)
			}
		}
	}
}
