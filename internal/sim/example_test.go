package sim_test

import (
	"fmt"

	"imflow/internal/cost"
	"imflow/internal/retrieval"
	"imflow/internal/sim"
	"imflow/internal/storage"
)

// A two-query burst: the second query sees the backlog the first one left,
// which is exactly the X_j input of the generalized retrieval problem.
func ExampleSimulator() {
	sys := storage.Uniform(1, 2, storage.Cheetah) // two 6.1ms disks, one site
	s := sim.New(sys, sim.SolverScheduler{Solver: retrieval.NewPRBinary()})

	// Query 1: four buckets, two replicated on each disk.
	r1, err := s.Submit(sim.Query{
		Arrival:  0,
		Replicas: [][]int{{0}, {0}, {1}, {1}},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("query 1 response: %v\n", r1.ResponseTime)

	// Query 2 arrives immediately after and must wait behind the queues.
	// The backlog is read before it is placed: either disk serves it in
	// the same time, so which one it lands on is the solver's tie-break.
	backlog := s.LoadAt(0, cost.FromMillis(1))
	r2, err := s.Submit(sim.Query{
		Arrival:  cost.FromMillis(1),
		Replicas: [][]int{{0, 1}},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("query 2 response: %v (includes %v of backlog)\n", r2.ResponseTime, backlog)
	// Output:
	// query 1 response: 12.200ms
	// query 2 response: 17.300ms (includes 11.200ms of backlog)
}
