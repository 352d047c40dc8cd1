package maxflow_test

import (
	"fmt"

	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
)

// The integrated usage pattern: solve, raise capacities, and re-solve
// without discarding the flow already computed.
func ExamplePushRelabel() {
	g := flowgraph.New(4)
	s, t := 0, 3
	g.AddEdge(s, 1, 10)
	g.AddEdge(s, 2, 10)
	a := g.AddEdge(1, t, 5)
	g.AddEdge(2, t, 5)
	g.Freeze()

	pr := maxflow.NewPushRelabel(g)
	fmt.Println("first run:", pr.Run(s, t))

	// Raise one sink-side capacity; the previous flow is conserved and
	// only the extra 5 units are computed.
	g.SetCap(a, 10)
	fmt.Println("after capacity increase:", pr.Run(s, t))
	// Output:
	// first run: 10
	// after capacity increase: 15
}

// Max-flow/min-cut duality: the residual reachability after a run yields a
// cut whose capacity equals the flow.
func ExampleMinCut() {
	g := flowgraph.New(4)
	s, t := 0, 3
	g.AddEdge(s, 1, 3)
	g.AddEdge(s, 2, 2)
	g.AddEdge(1, t, 2)
	g.AddEdge(2, t, 3)
	g.Freeze()

	flow := maxflow.NewDinic(g).Run(s, t)
	cut := maxflow.MinCut(g, s)
	fmt.Println("flow:", flow)
	fmt.Println("cut capacity:", maxflow.CutCapacity(g, cut))
	// Output:
	// flow: 4
	// cut capacity: 4
}
