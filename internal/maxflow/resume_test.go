package maxflow

import (
	"testing"

	"imflow/internal/xrand"
)

// TestResumeAfterDrainMatchesFreshRun drives the FIFO engine the way the
// conserving binary search does: one Run, then rounds that move
// capacities on arcs into the sink, raise some out of the source, drain
// the flow to them, and Resume from the heights the previous run left.
// Source capacities above 1 let a drained bucket keep flow on its other
// arcs, and a source arc raised from 0 feeds a bucket no path drained.
// Every round must reach the value of a fresh Edmonds-Karp on a clone,
// pass the max-flow/min-cut certificate, and end on a valid labelling.
// Under imflow_audit each Resume also checks its repaired labelling.
func TestResumeAfterDrainMatchesFreshRun(t *testing.T) {
	rng := xrand.New(18)
	for trial := 0; trial < 30; trial++ {
		q := 5 + rng.Intn(120)
		nd := 2 + rng.Intn(12)
		maxCap := q/nd + 3
		g, s, snk := bipartiteRetrievalGraph(rng, q, nd, int64(rng.Intn(maxCap)))
		var srcArcs, sinkArcs []int
		for a := 0; a < g.M(); a += 2 {
			switch {
			case int(g.To[a^1]) == s:
				srcArcs = append(srcArcs, a)
			case int(g.To[a]) == snk:
				sinkArcs = append(sinkArcs, a)
			}
		}
		for _, a := range srcArcs {
			g.SetCap(a, int64(rng.Intn(3)))
		}
		pr := NewPushRelabel(g)
		pr.Run(s, snk)
		for round := 0; round < 12; round++ {
			for _, a := range sinkArcs {
				if rng.Intn(2) == 0 {
					g.SetCap(a, int64(rng.Intn(maxCap)))
				}
			}
			for _, a := range srcArcs {
				if rng.Intn(8) == 0 && g.Cap[a] < 3 {
					g.SetCap(a, g.Cap[a]+1)
				}
			}
			g.DrainExcess(s, snk)
			fresh := g.Clone()
			fresh.ZeroFlows()
			want := NewEdmondsKarp(fresh).Run(s, snk)
			if got := pr.Resume(s, snk); got != want {
				t.Fatalf("trial %d round %d: Resume flow %d, fresh Edmonds-Karp %d", trial, round, got, want)
			}
			if _, err := g.CheckFlow(s, snk); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			if err := Certify(g, s, snk); err != nil {
				t.Fatalf("trial %d round %d: certificate rejected: %v", trial, round, err)
			}
			if err := pr.checkLabels(s, snk); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
		}
	}
}

// TestResumeAfterResetIsRun: Reset drops the held heights, so Resume on a
// freshly rebuilt graph must fall back to the global relabel and do
// exactly what Run does, value and operation counts alike. Reset without
// a rebuild must drop them too, while a Resume with nothing changed since
// the last run keeps them and runs no global relabel.
func TestResumeAfterResetIsRun(t *testing.T) {
	rng := xrand.New(7)
	proto, s, snk := bipartiteRetrievalGraph(rng, 60, 6, 60) // every bucket routed
	g := proto.Clone()
	pr := NewPushRelabel(g)
	pr.Run(s, snk)
	rebuildInto(g, proto)
	pr.Reset()
	*pr.Metrics() = Metrics{}
	got := pr.Resume(s, snk)

	ref := NewPushRelabel(proto.Clone())
	want := ref.Run(s, snk)
	if got != want {
		t.Fatalf("Resume after Reset: flow %d, Run %d", got, want)
	}
	if *pr.Metrics() != *ref.Metrics() {
		t.Fatalf("Resume after Reset: metrics %+v, Run %+v", *pr.Metrics(), *ref.Metrics())
	}

	*pr.Metrics() = Metrics{}
	if got := pr.Resume(s, snk); got != want {
		t.Fatalf("second Resume: flow %d, want %d", got, want)
	}
	if n := pr.Metrics().GlobalRelabels; n != 0 {
		t.Fatalf("Resume with nothing changed ran %d global relabels, want 0", n)
	}
	pr.Reset()
	if got := pr.Resume(s, snk); got != want {
		t.Fatalf("Resume after Reset on a solved graph: flow %d, want %d", got, want)
	}
	if n := pr.Metrics().GlobalRelabels; n != 1 {
		t.Fatalf("Resume after Reset on a solved graph ran %d global relabels, want 1", n)
	}
}
