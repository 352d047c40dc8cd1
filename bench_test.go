// Benchmarks regenerating each of the paper's evaluation artifacts in
// testing.B form, one benchmark (family) per table and figure, plus
// ablation benches for the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// These operate at reduced scale so the whole suite finishes in minutes;
// cmd/figures sweeps the paper's full N=10..100 x 1000-query grid.
package imflow_test

import (
	"fmt"
	"testing"

	"imflow/internal/experiment"
	"imflow/internal/flowgraph"
	"imflow/internal/grid"
	"imflow/internal/maxflow"
	"imflow/internal/maxflow/parallel"
	"imflow/internal/query"
	"imflow/internal/retrieval"
	"imflow/internal/xrand"
)

// buildCell materializes one evaluation cell, failing the benchmark on
// error.
func buildCell(b *testing.B, expNum int, alloc experiment.AllocKind, typ query.Type,
	load query.Load, n, queries int) []*retrieval.Problem {
	b.Helper()
	cfg := experiment.Config{
		ExpNum: expNum, Alloc: alloc, Type: typ, Load: load,
		N: n, Queries: queries, Seed: 1,
	}
	inst, err := cfg.Build()
	if err != nil {
		b.Fatal(err)
	}
	return inst.Problems
}

// solveBatch runs the solver over the batch once per iteration.
func solveBatch(b *testing.B, s retrieval.Solver, problems []*retrieval.Problem) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range problems {
			if _, err := s.Solve(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Table III / Table IV -------------------------------------------------
// The tables are constants pinned by unit tests
// (storage.TestCatalogMatchesTableIII, storage.TestExperimentsMatchTableIV);
// BenchmarkTableIVInstantiation measures how fast a Table IV system builds.

func BenchmarkTableIVInstantiation(b *testing.B) {
	for exp := 1; exp <= 5; exp++ {
		b.Run(fmt.Sprintf("exp%d", exp), func(b *testing.B) {
			cfg := experiment.Config{
				ExpNum: exp, Alloc: experiment.Orthogonal,
				Type: query.Range, Load: query.Load3,
				N: 20, Queries: 10, Seed: 1,
			}
			for i := 0; i < b.N; i++ {
				if _, err := cfg.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 5: Exp 1, RDA, Ford-Fulkerson (Alg 1) vs Push-relabel (Alg 6) --

func BenchmarkFig5(b *testing.B) {
	panels := []struct {
		name string
		typ  query.Type
		load query.Load
	}{
		{"RangeLoad1", query.Range, query.Load1},
		{"ArbitraryLoad2", query.Arbitrary, query.Load2},
		{"RangeLoad3", query.Range, query.Load3},
	}
	for _, pn := range panels {
		problems := buildCell(b, 1, experiment.RDA, pn.typ, pn.load, 20, 10)
		b.Run(pn.name+"/ford-fulkerson", func(b *testing.B) {
			solveBatch(b, retrieval.NewFFBasic(), problems)
		})
		b.Run(pn.name+"/push-relabel", func(b *testing.B) {
			solveBatch(b, retrieval.NewPRBinaryBisect(), problems)
		})
	}
}

// --- Figure 6: Exp 5, Orthogonal, FF (Alg 2) vs PR (Alg 6) -----------------

func BenchmarkFig6(b *testing.B) {
	panels := []struct {
		name string
		typ  query.Type
		load query.Load
	}{
		{"ArbitraryLoad1", query.Arbitrary, query.Load1},
		{"RangeLoad2", query.Range, query.Load2},
		{"ArbitraryLoad3", query.Arbitrary, query.Load3},
	}
	for _, pn := range panels {
		problems := buildCell(b, 5, experiment.Orthogonal, pn.typ, pn.load, 20, 10)
		b.Run(pn.name+"/ford-fulkerson", func(b *testing.B) {
			solveBatch(b, retrieval.NewFFIncremental(), problems)
		})
		b.Run(pn.name+"/push-relabel", func(b *testing.B) {
			solveBatch(b, retrieval.NewPRBinaryBisect(), problems)
		})
	}
}

// --- Figure 7: Exp 1, black box vs integrated PR per allocation ------------

func BenchmarkFig7(b *testing.B) {
	for _, alloc := range experiment.AllKinds {
		problems := buildCell(b, 1, alloc, query.Range, query.Load1, 20, 10)
		b.Run(alloc.String()+"/blackbox", func(b *testing.B) {
			solveBatch(b, retrieval.NewPRBinaryBlackBox(), problems)
		})
		b.Run(alloc.String()+"/integrated", func(b *testing.B) {
			solveBatch(b, retrieval.NewPRBinaryBisect(), problems)
		})
	}
}

// --- Figure 8: Exp 3, Arbitrary Load 1, BB vs integrated per allocation ----

func BenchmarkFig8(b *testing.B) {
	for _, alloc := range experiment.AllKinds {
		problems := buildCell(b, 3, alloc, query.Arbitrary, query.Load1, 20, 10)
		b.Run(alloc.String()+"/blackbox", func(b *testing.B) {
			solveBatch(b, retrieval.NewPRBinaryBlackBox(), problems)
		})
		b.Run(alloc.String()+"/integrated", func(b *testing.B) {
			solveBatch(b, retrieval.NewPRBinaryBisect(), problems)
		})
	}
}

// --- Figure 9: Exp 5 (hardest case), BB vs integrated, arbitrary loads -----

func BenchmarkFig9(b *testing.B) {
	for _, load := range []query.Load{query.Load1, query.Load2, query.Load3} {
		problems := buildCell(b, 5, experiment.Orthogonal, query.Arbitrary, load, 20, 10)
		b.Run(fmt.Sprintf("%s/blackbox", load), func(b *testing.B) {
			solveBatch(b, retrieval.NewPRBinaryBlackBox(), problems)
		})
		b.Run(fmt.Sprintf("%s/integrated", load), func(b *testing.B) {
			solveBatch(b, retrieval.NewPRBinaryBisect(), problems)
		})
	}
}

// --- Figure 10: Exp 5, parallel vs sequential integrated PR ----------------

func BenchmarkFig10(b *testing.B) {
	problems := buildCell(b, 5, experiment.Orthogonal, query.Arbitrary, query.Load1, 40, 5)
	b.Run("sequential", func(b *testing.B) {
		solveBatch(b, retrieval.NewPRBinaryBisect(), problems)
	})
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel-%dthreads", threads), func(b *testing.B) {
			solveBatch(b, retrieval.NewPRBinaryParallel(threads), problems)
		})
	}
}

// --- Ablations --------------------------------------------------------------

// BenchmarkAblationEngines compares raw max-flow engines on a
// retrieval-shaped network (DESIGN.md: why push-relabel over the
// alternatives).
func BenchmarkAblationEngines(b *testing.B) {
	build := func() (*flowgraph.Graph, int, int) {
		rng := xrand.New(3)
		q, nd := 800, 40
		g := flowgraph.New(q + nd + 2)
		s, t := 0, q+nd+1
		for i := 0; i < q; i++ {
			g.AddEdge(s, 1+i, 1)
			g.AddEdge(1+i, 1+q+rng.Intn(nd/2), 1)
			g.AddEdge(1+i, 1+q+nd/2+rng.Intn(nd/2), 1)
		}
		for d := 0; d < nd; d++ {
			g.AddEdge(1+q+d, t, int64(q/nd)+1)
		}
		g.Freeze()
		return g, s, t
	}
	engines := []struct {
		name string
		mk   func(*flowgraph.Graph) maxflow.Engine
	}{
		{"ford-fulkerson", func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewFordFulkerson(g) }},
		{"edmonds-karp", func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewEdmondsKarp(g) }},
		{"dinic", func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewDinic(g) }},
		{"push-relabel-fifo", func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewPushRelabel(g) }},
		{"parallel-2", func(g *flowgraph.Graph) maxflow.Engine { return parallel.New(g, 2) }},
	}
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			g, s, t := build()
			engine := e.mk(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.ZeroFlows()
				engine.Run(s, t)
			}
		})
	}
}

// BenchmarkAblationGlobalRelabel measures the sequential push-relabel
// engine with periodic global relabeling on vs exact-init-only
// (DESIGN.md: the exact-height heuristic of [19]).
func BenchmarkAblationGlobalRelabel(b *testing.B) {
	build := func() (*flowgraph.Graph, int, int) {
		rng := xrand.New(9)
		q, nd := 600, 30
		g := flowgraph.New(q + nd + 2)
		s, t := 0, q+nd+1
		for i := 0; i < q; i++ {
			g.AddEdge(s, 1+i, 1)
			g.AddEdge(1+i, 1+q+rng.Intn(nd), 1)
			g.AddEdge(1+i, 1+q+rng.Intn(nd), 1)
		}
		for d := 0; d < nd; d++ {
			// Deliberately tight sink capacities: much of the preflow must
			// return to the source, the regime the heuristics exist for.
			g.AddEdge(1+q+d, t, int64(q/(2*nd)))
		}
		g.Freeze()
		return g, s, t
	}
	for _, cfg := range []struct {
		name     string
		interval int
	}{
		{"periodic-default", 0},
		{"init-only", -1},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			g, s, t := build()
			pr := maxflow.NewPushRelabel(g)
			pr.GlobalRelabelInterval = cfg.interval
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.ZeroFlows()
				pr.Run(s, t)
			}
		})
	}
}

// BenchmarkAblationGreedyGap quantifies the price of optimality: greedy
// decision time vs the integrated solver on the same batch.
func BenchmarkAblationGreedyGap(b *testing.B) {
	problems := buildCell(b, 5, experiment.Orthogonal, query.Arbitrary, query.Load1, 20, 10)
	b.Run("greedy", func(b *testing.B) {
		solveBatch(b, retrieval.NewGreedy(), problems)
	})
	b.Run("pr-binary", func(b *testing.B) {
		solveBatch(b, retrieval.NewPRBinary(), problems)
	})
}

// BenchmarkAblationIncrementalVsBinary isolates the value of binary
// capacity scaling: Algorithm 5 (pure incremental) vs Algorithm 6.
func BenchmarkAblationIncrementalVsBinary(b *testing.B) {
	problems := buildCell(b, 5, experiment.RDA, query.Arbitrary, query.Load2, 20, 10)
	b.Run("incremental-alg5", func(b *testing.B) {
		solveBatch(b, retrieval.NewPRIncremental(), problems)
	})
	b.Run("binary-alg6", func(b *testing.B) {
		solveBatch(b, retrieval.NewPRBinaryBisect(), problems)
	})
}

// BenchmarkQueryGeneration measures the workload generators.
func BenchmarkQueryGeneration(b *testing.B) {
	gens := []struct {
		typ  query.Type
		load query.Load
	}{
		{query.Range, query.Load1},
		{query.Arbitrary, query.Load1},
		{query.Arbitrary, query.Load3},
	}
	for _, gc := range gens {
		b.Run(fmt.Sprintf("%s-%s", gc.typ, gc.load), func(b *testing.B) {
			g := grid.New(50)
			gen := query.NewGenerator(g, gc.typ, gc.load)
			rng := xrand.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen.Query(rng)
			}
		})
	}
}
