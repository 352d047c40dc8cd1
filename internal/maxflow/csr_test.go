// The push-relabel engines' CSR contract: every Run compacts the graph
// itself and scans only the CSR index, so a caller may grow a graph
// between runs without ever calling Compact, and when the caller compacts
// makes no difference to what an engine computes. This file is an
// external test package so it can reach the parallel solver without a
// cycle.
package maxflow_test

import (
	"testing"

	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
	"imflow/internal/maxflow/parallel"
	"imflow/internal/xrand"
)

// csrEngines are the engines that scan only the CSR index. The parallel
// solver assigns flow racily, so it is audited with VerifyFlow instead of
// the full min-cut certificate.
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

// TestPropertyCompactOnRun interleaves AddEdge, capacity raises and Run
// on graphs the test never compacts. Each Run must reach Edmonds-Karp's
// value on a clone of the pre-run graph and leave a verified flow — a
// stale or missing CSR index would hide the arcs added since the last run
// — and must leave the graph compacted; AddEdge must thaw it again.
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
				if g.Compacted() {
					t.Fatalf("%s trial %d round %d: graph frozen before the engine ran", tc.name, trial, round)
				}
				want := maxflow.NewEdmondsKarp(g.Clone()).Run(s, snk)
				if got := e.Run(s, snk); got != want {
					t.Fatalf("%s trial %d round %d: flow %d, Edmonds-Karp %d", tc.name, trial, round, got, want)
				}
				if !g.Compacted() {
					t.Fatalf("%s trial %d round %d: Run left the graph uncompacted", tc.name, trial, round)
				}
				if tc.parallel {
					if value, err := maxflow.VerifyFlow(g, s, snk); err != nil || value != want {
						t.Fatalf("%s trial %d round %d: audit value %d err %v, want %d", tc.name, trial, round, value, err, want)
					}
				} else if err := maxflow.Certify(g, s, snk); err != nil {
					t.Fatalf("%s trial %d round %d: %v", tc.name, trial, round, err)
				}

				// Raise a few forward capacities (the retrieval
				// binary-search pattern), then grow the graph; the added
				// arc must thaw it so the next Run re-indexes.
				for a := 0; a < g.M(); a += 2 {
					if rng.Intn(3) == 0 {
						g.SetCap(a, g.Cap[a]+int64(1+rng.Intn(6)))
					}
				}
				u, v := rng.Intn(n), rng.Intn(n)
				for u == v || v == s || u == snk {
					u, v = rng.Intn(n), rng.Intn(n)
				}
				g.AddEdge(u, v, int64(1+rng.Intn(10)))
				if g.Compacted() {
					t.Fatalf("%s trial %d round %d: AddEdge left the graph frozen", tc.name, trial, round)
				}
			}
		}
	}
}

func assertGraphsBitIdentical(t *testing.T, name string, round int, onRun, eager *flowgraph.Graph) {
	t.Helper()
	if onRun.M() != eager.M() {
		t.Fatalf("%s round %d: arc counts diverged: %d vs %d", name, round, onRun.M(), eager.M())
	}
	for a := 0; a < onRun.M(); a++ {
		if onRun.Flow[a] != eager.Flow[a] {
			t.Fatalf("%s round %d: Flow[%d] = %d compacted on Run, %d compacted by the caller",
				name, round, a, onRun.Flow[a], eager.Flow[a])
		}
		if onRun.Residual(a) != eager.Residual(a) {
			t.Fatalf("%s round %d: Residual(%d) = %d compacted on Run, %d compacted by the caller",
				name, round, a, onRun.Residual(a), eager.Residual(a))
		}
	}
}

// TestPropertyCompactBitIdenticalEngines checks that compaction timing is
// invisible: for every deterministic engine, interleaved AddEdge / retune /
// solve sequences produce bit-identical per-arc flows, residual
// capacities, and operation metrics whether the caller compacts the graph
// before every solve or leaves it to Run — and Compact() itself never
// changes a residual capacity or an arc's flow.
func TestPropertyCompactBitIdenticalEngines(t *testing.T) {
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
			if tc.parallel {
				continue
			}
			onRun := proto.Clone() // only Run compacts it
			eager := proto.Clone()
			eOnRun := tc.mk(onRun)
			eEager := tc.mk(eager)
			eager.Compact()
			for round := 0; round < 4; round++ {
				// Compaction must be payload-neutral even mid-sequence,
				// with flow already on the arcs.
				preFlow := append([]int64(nil), eager.Flow...)
				preCap := append([]int64(nil), eager.Cap...)
				eager.Compact()
				for a := 0; a < eager.M(); a++ {
					if eager.Flow[a] != preFlow[a] || eager.Cap[a] != preCap[a] {
						t.Fatalf("%s trial %d round %d: Compact changed arc %d payload", tc.name, trial, round, a)
					}
				}
				if !eager.Compacted() {
					t.Fatalf("%s trial %d round %d: graph not frozen before solve", tc.name, trial, round)
				}

				got, want := eEager.Run(s, snk), eOnRun.Run(s, snk)
				if got != want {
					t.Fatalf("%s trial %d round %d: caller-compacted flow %d, compacted-on-Run flow %d", tc.name, trial, round, got, want)
				}
				assertGraphsBitIdentical(t, tc.name, round, onRun, eager)
				if *eEager.Metrics() != *eOnRun.Metrics() {
					t.Fatalf("%s trial %d round %d: metrics diverged: caller-compacted %+v, compacted-on-Run %+v",
						tc.name, trial, round, *eEager.Metrics(), *eOnRun.Metrics())
				}
				if err := maxflow.Certify(eager, s, snk); err != nil {
					t.Fatalf("%s trial %d round %d: %v", tc.name, trial, round, err)
				}

				// Retune: raise a few forward capacities (the retrieval
				// binary-search pattern) identically on both graphs.
				for a := 0; a < onRun.M(); a += 2 {
					if rng.Intn(3) == 0 {
						delta := int64(1 + rng.Intn(6))
						onRun.SetCap(a, onRun.Cap[a]+delta)
						eager.SetCap(a, eager.Cap[a]+delta)
					}
				}
				// Grow: add the same arc to both; this thaws both graphs,
				// and the next iteration re-compacts them.
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v && v != s && u != snk {
					c := int64(1 + rng.Intn(10))
					onRun.AddEdge(u, v, c)
					eager.AddEdge(u, v, c)
					if eager.Compacted() {
						t.Fatalf("%s trial %d round %d: AddEdge left graph frozen", tc.name, trial, round)
					}
				}
			}
		}
	}
}

// TestCompactParallelEngineValue covers the parallel solver on a graph the
// caller compacted before building it: scheduling is nondeterministic, so
// the assertion is value equality plus a full flow-conservation audit.
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
			g.Compact()
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
