// Parallelspeedup: Section V of the paper — the retrieval decision is on
// the query's critical path, so new-generation multicore storage arrays
// can spend extra cores to shave it. This example times the integrated
// push-relabel solver sequentially and with the lock-free parallel engine
// at 1, 2, 4 and 8 threads on large Experiment 5 instances, printing the
// per-thread-count speedup.
//
// Run with:
//
//	go run ./examples/parallelspeedup
package main

import (
	"fmt"
	"log"
	"runtime"

	"imflow/internal/bench"
	"imflow/internal/experiment"
	"imflow/internal/query"
	"imflow/internal/retrieval"
)

func main() {
	cfg := experiment.Config{
		ExpNum:  5,
		Alloc:   experiment.Orthogonal,
		Type:    query.Arbitrary,
		Load:    query.Load1, // large queries: ~N^2/2 buckets each
		N:       60,
		Queries: 20,
		Seed:    5,
	}
	inst, err := cfg.Build()
	if err != nil {
		log.Fatal(err)
	}
	var total int
	for _, p := range inst.Problems {
		total += p.QuerySize()
	}
	fmt.Printf("cell %s: %d queries, avg |Q| = %d buckets, %d cores available\n\n",
		cfg, len(inst.Problems), total/len(inst.Problems), runtime.NumCPU())

	seq, err := bench.MeasureSolver(retrieval.NewPRBinaryBisect(), inst.Problems)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-26s %8.3f ms/query\n", "sequential pr-binary-bisect", seq.AvgMs())
	for _, threads := range []int{1, 2, 4, 8} {
		par, err := bench.MeasureSolver(retrieval.NewPRBinaryParallel(threads), inst.Problems)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-26s %8.3f ms/query  speedup vs sequential: %.2fx\n",
			par.Solver, par.AvgMs(), seq.AvgMs()/par.AvgMs())
	}
	fmt.Println("\n(the paper reports up to 1.7x, ~1.2x on average, with two threads;")
	fmt.Println(" small queries parallelize poorly — the speedup is a large-|Q| effect)")
}
