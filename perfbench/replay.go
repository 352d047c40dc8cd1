package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"imflow/internal/cost"
	"imflow/internal/experiment"
	"imflow/internal/fault"
	"imflow/internal/retrieval"
	"imflow/internal/serve"
	"imflow/internal/sim"
)

// replayResult is the deterministic replay's cost and work counts.
type replayResult struct {
	queries int
	elapsed time.Duration
	mallocs uint64
	counts  solveCounts
}

// replay serves queries through serve in Deterministic mode, on the model
// clock with no HTTP, arriving at the given model instants, and checks
// that every response time, finish and dropped-bucket count is
// bit-identical to sim.Simulator replaying the same sequence. chaos, when
// non-nil, runs through both.
func replay(inst *experiment.Instance, queries [][]int, arrive []cost.Micros, chaos *fault.Schedule) (*replayResult, error) {
	stream := make([]serve.Query, len(queries))
	simStream := make([]sim.Query, len(queries))
	for i, buckets := range queries {
		reps := experiment.BuildProblem(inst.System, inst.Alloc, buckets).Replicas
		stream[i] = serve.Query{Seq: i, Arrival: arrive[i], Replicas: reps}
		simStream[i] = sim.Query{Arrival: arrive[i], Replicas: reps}
	}

	var solver *observedSolver
	opt := serve.Options{
		Deterministic: true,
		Fault:         chaos,
		NewSolver: func() retrieval.ReusableSolver {
			solver = &observedSolver{inner: retrieval.NewPRBinary()}
			return solver
		},
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	got, err := serve.Serve(context.Background(), inst.System, stream, opt)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("deterministic replay: %w", err)
	}

	simulator := sim.New(inst.System, sim.FailoverScheduler{Solver: retrieval.NewPRBinary()})
	if chaos != nil {
		if err := simulator.SetFault(fault.NewState(chaos)); err != nil {
			return nil, err
		}
	}
	want, err := simulator.Run(simStream)
	if err != nil {
		return nil, fmt.Errorf("simulator replay: %w", err)
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Rejected || g.ResponseTime != w.ResponseTime || g.Finish != w.Finish || g.Dropped != len(w.Dropped) {
			return nil, fmt.Errorf("replay query %d: serve (rejected %v, response %v, finish %v, dropped %d), sim (response %v, finish %v, dropped %d)",
				i, g.Rejected, g.ResponseTime, g.Finish, g.Dropped, w.ResponseTime, w.Finish, len(w.Dropped))
		}
	}
	return &replayResult{
		queries: len(queries),
		elapsed: elapsed,
		mallocs: after.Mallocs - before.Mallocs,
		counts:  solver.counts,
	}, nil
}
