package parallel

import (
	"sync"
	"testing"

	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
	"imflow/internal/xrand"
)

// This file is the race-detector workload for the lock-free solver: graphs
// shaped to maximize contention on the atomic res/excess/height/inQueue
// arrays, driven hard enough that `go test -race` exercises the CAS loops,
// the excess-drain phase, and the global-relabel quiesce path. Run it as
//
//	go test -race ./internal/maxflow/parallel/...
//
// The plain (non-race) run doubles as an extra correctness stress.

// stressTrials scales the workload down under -short.
func stressTrials(full int) int {
	if testing.Short() {
		return full / 4
	}
	return full
}

// denseGraph is an almost-complete digraph: every vertex competes for the
// same arcs, so concurrent discharges collide on the residual CAS loop
// constantly.
func denseGraph(rng *xrand.Source, n int, maxCap int64) (*flowgraph.Graph, int, int) {
	g := flowgraph.New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || v == 0 || u == n-1 {
				continue
			}
			g.AddEdge(u, v, int64(rng.Intn(int(maxCap)))+1)
		}
	}
	g.Freeze()
	return g, 0, n - 1
}

// narrowBipartite is the retrieval shape at its most contended: many
// request vertices funneling into very few disk vertices, so the disk
// rows' excess counters are hammered from every worker.
func narrowBipartite(rng *xrand.Source, q, nd int) (*flowgraph.Graph, int, int) {
	g := flowgraph.New(q + nd + 2)
	s, t := 0, q+nd+1
	for i := 0; i < q; i++ {
		g.AddEdge(s, 1+i, 1)
		g.AddEdge(1+i, 1+q+rng.Intn(nd), 1)
		g.AddEdge(1+i, 1+q+rng.Intn(nd), 1)
	}
	for d := 0; d < nd; d++ {
		g.AddEdge(1+q+d, t, int64(q/nd+1))
	}
	g.Freeze()
	return g, s, t
}

// ringGraph chains vertices in a cycle with chords, producing flow cycles
// the drain phase must cancel — the trickiest sequential phase to reach
// from a concurrent state.
func ringGraph(rng *xrand.Source, n int, maxCap int64) (*flowgraph.Graph, int, int) {
	g := flowgraph.New(n)
	for v := 0; v < n; v++ {
		w := (v + 1) % n
		if v != n-1 && w != 0 {
			g.AddEdge(v, w, int64(rng.Intn(int(maxCap)))+1)
		}
		c := rng.Intn(n)
		if c != v && c != 0 && v != n-1 {
			g.AddEdge(v, c, int64(rng.Intn(int(maxCap)))+1)
		}
	}
	if g.M() == 0 {
		g.AddEdge(0, n-1, 1)
	}
	g.Freeze()
	return g, 0, n - 1
}

func TestRaceStressAdversarialShapes(t *testing.T) {
	shapes := []struct {
		name  string
		build func(rng *xrand.Source) (*flowgraph.Graph, int, int)
	}{
		{"dense", func(rng *xrand.Source) (*flowgraph.Graph, int, int) {
			return denseGraph(rng, 8+rng.Intn(8), 30)
		}},
		{"narrow-bipartite", func(rng *xrand.Source) (*flowgraph.Graph, int, int) {
			return narrowBipartite(rng, 60+rng.Intn(100), 2+rng.Intn(3))
		}},
		{"ring", func(rng *xrand.Source) (*flowgraph.Graph, int, int) {
			return ringGraph(rng, 6+rng.Intn(12), 20)
		}},
	}
	for _, shape := range shapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			t.Parallel()
			rng := xrand.New(uint64(len(shape.name)) * 7919)
			for trial := 0; trial < stressTrials(24); trial++ {
				gProto, s, snk := shape.build(rng)
				want := maxflow.NewEdmondsKarp(gProto.Clone()).Run(s, snk)
				for _, threads := range []int{4, 8} {
					g := gProto.Clone()
					p := New(g, threads)
					if got := p.Run(s, snk); got != want {
						t.Fatalf("trial %d threads %d: flow %d, want %d", trial, threads, got, want)
					}
					if err := maxflow.Certify(g, s, snk); err != nil {
						t.Fatalf("trial %d threads %d: %v", trial, threads, err)
					}
				}
			}
		})
	}
}

// TestRaceStressConservedGrowth replays the integrated retrieval pattern
// under contention: one solver instance, repeated conserved runs while
// capacities keep growing between them.
func TestRaceStressConservedGrowth(t *testing.T) {
	rng := xrand.New(31337)
	for trial := 0; trial < stressTrials(12); trial++ {
		g, s, snk := narrowBipartite(rng, 80, 3)
		p := New(g, 8)
		p.Run(s, snk)
		for round := 0; round < 6; round++ {
			for a := 0; a < g.M(); a += 2 {
				if rng.Intn(3) == 0 {
					g.SetCap(a, g.Cap[a]+int64(rng.Intn(3)))
				}
			}
			got := p.Run(s, snk)
			fresh := g.Clone()
			fresh.ZeroFlows()
			want := maxflow.NewEdmondsKarp(fresh).Run(s, snk)
			if got != want {
				t.Fatalf("trial %d round %d: conserved run %d, want %d", trial, round, got, want)
			}
			if err := maxflow.Certify(g, s, snk); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
		}
	}
}

// TestRaceStressConcurrentSolvers runs many independent solver instances
// simultaneously, so the race detector can observe cross-goroutine
// interleavings of entirely unrelated atomic arrays (catching any
// accidental shared state between instances).
func TestRaceStressConcurrentSolvers(t *testing.T) {
	rng := xrand.New(2718)
	instances := stressTrials(8)
	type job struct {
		g      *flowgraph.Graph
		s, snk int
		want   int64
	}
	jobs := make([]job, instances)
	for i := range jobs {
		g, s, snk := denseGraph(rng, 10, 25)
		jobs[i] = job{g, s, snk, maxflow.NewEdmondsKarp(g.Clone()).Run(s, snk)}
	}
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			p := New(j.g, 4)
			if got := p.Run(j.s, j.snk); got != j.want {
				t.Errorf("concurrent solver: flow %d, want %d", got, j.want)
			}
		}(jobs[i])
	}
	wg.Wait()
	for _, j := range jobs {
		if err := maxflow.Certify(j.g, j.s, j.snk); err != nil {
			t.Errorf("concurrent solver: %v", err)
		}
	}
}
