package maxflow

import (
	"testing"

	"imflow/internal/xrand"
)

func TestMinCutOnFixedNetwork(t *testing.T) {
	g, s, snk := buildFixed()
	NewPushRelabel(g).Run(s, snk)
	reachable := MinCut(g, s)
	if !reachable[s] {
		t.Fatal("source not reachable from itself")
	}
	if reachable[snk] {
		t.Fatal("sink reachable in residual graph of a max flow")
	}
	if got := CutCapacity(g, reachable); got != 23 {
		t.Fatalf("cut capacity %d, want 23", got)
	}
}

// TestMaxFlowMinCutTheorem is the classic duality property test: on random
// graphs, the min-cut capacity derived from the residual reachability of a
// maximum flow equals the flow value.
func TestMaxFlowMinCutTheorem(t *testing.T) {
	rng := xrand.New(2024)
	for trial := 0; trial < 150; trial++ {
		n := 4 + rng.Intn(25)
		m := 1 + rng.Intn(4*n)
		g, s, snk := randomGraph(rng, n, m, 12)
		flow := NewPushRelabel(g).Run(s, snk)
		reachable := MinCut(g, s)
		if reachable[snk] && flow > 0 {
			t.Fatalf("trial %d: sink residually reachable after max flow", trial)
		}
		if cut := CutCapacity(g, reachable); cut != flow {
			t.Fatalf("trial %d: cut %d != flow %d", trial, cut, flow)
		}
	}
}

func TestMinCutBeforeAnyFlow(t *testing.T) {
	// With zero flow, everything connected to s is reachable.
	g, s, snk := buildFixed()
	reachable := MinCut(g, s)
	if !reachable[snk] {
		t.Fatal("sink should be reachable with zero flow")
	}
}

// TestResidualReachSharedByEveryMaxFlow checks the property the min-cut
// search relies on: every maximum flow leaves the same residual-reachable
// set, so engines that reach different maximum flows report one cut. It
// also checks that ResidualReach returns the reached vertices, s first,
// and agrees with MinCut.
func TestResidualReachSharedByEveryMaxFlow(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 150; trial++ {
		n := 4 + rng.Intn(25)
		m := 1 + rng.Intn(4*n)
		g, s, snk := randomGraph(rng, n, m, 12)
		h := g.Clone()
		NewPushRelabel(g).Run(s, snk)
		NewEdmondsKarp(h).Run(s, snk)
		reached := make([]bool, n)
		queue := ResidualReach(g, s, reached, nil)
		if len(queue) == 0 || queue[0] != int32(s) {
			t.Fatalf("trial %d: visit order %v does not start at s=%d", trial, queue, s)
		}
		count := 0
		for _, r := range reached {
			if r {
				count++
			}
		}
		if count != len(queue) {
			t.Fatalf("trial %d: %d vertices marked, %d returned", trial, count, len(queue))
		}
		other := MinCut(h, s)
		for v := range reached {
			if reached[v] != other[v] {
				t.Fatalf("trial %d: vertex %d reached %v after push-relabel, %v after Edmonds-Karp", trial, v, reached[v], other[v])
			}
		}
	}
}

// TestResidualReachAllocs: with its slices passed back, the pass
// allocates nothing.
func TestResidualReachAllocs(t *testing.T) {
	g, s, snk := buildFixed()
	NewPushRelabel(g).Run(s, snk)
	reached := make([]bool, g.N)
	queue := make([]int32, 0, g.N)
	if avg := testing.AllocsPerRun(20, func() {
		queue = ResidualReach(g, s, reached, queue)
	}); avg != 0 {
		t.Errorf("%v allocs per ResidualReach, want 0", avg)
	}
}
