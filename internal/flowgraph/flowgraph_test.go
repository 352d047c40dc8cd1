package flowgraph

import (
	"strings"
	"testing"
	"testing/quick"

	"imflow/internal/xrand"
)

func TestAddEdgeArcPairing(t *testing.T) {
	g := New(3)
	a := g.AddEdge(0, 1, 5)
	b := g.AddEdge(1, 2, 7)
	if a != 0 || b != 2 {
		t.Fatalf("arc ids %d, %d; want 0, 2", a, b)
	}
	if g.To[a] != 1 || g.To[a^1] != 0 {
		t.Error("arc endpoints wrong")
	}
	if g.Cap[a] != 5 || g.Cap[a^1] != 0 {
		t.Error("reverse arc should have zero capacity")
	}
	if g.M() != 4 {
		t.Errorf("M = %d", g.M())
	}
}

func TestPushAndResidual(t *testing.T) {
	g := New(2)
	a := g.AddEdge(0, 1, 10)
	g.Push(a, 4)
	if g.Residual(a) != 6 || g.Residual(a^1) != 4 {
		t.Errorf("residuals %d, %d", g.Residual(a), g.Residual(a^1))
	}
	g.Push(a^1, 3) // push back
	if g.Residual(a) != 9 || g.Flow[a] != 1 {
		t.Errorf("after pushback: residual %d flow %d", g.Residual(a), g.Flow[a])
	}
}

func TestPushPanicsBeyondResidual(t *testing.T) {
	g := New(2)
	a := g.AddEdge(0, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	g.Push(a, 3)
}

func TestAddEdgePanics(t *testing.T) {
	g := New(2)
	for _, f := range []func(){
		func() { g.AddEdge(0, 5, 1) },
		func() { g.AddEdge(-1, 1, 1) },
		func() { g.AddEdge(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestAdjacencyIteration(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 3, 1)
	g.Freeze()
	var targets []int32
	for _, a := range g.ArcIdx[g.Start[0]:g.Start[1]] {
		targets = append(targets, g.To[a])
	}
	if len(targets) != 3 {
		t.Fatalf("vertex 0 has %d arcs, want 3", len(targets))
	}
	// Adjacency order is reverse insertion order.
	if targets[0] != 3 || targets[1] != 2 || targets[2] != 1 {
		t.Errorf("targets %v", targets)
	}
}

func TestZeroFlows(t *testing.T) {
	g := New(2)
	a := g.AddEdge(0, 1, 5)
	g.Push(a, 5)
	g.ZeroFlows()
	if g.Flow[a] != 0 || g.Flow[a^1] != 0 {
		t.Error("flows not cleared")
	}
}

func TestCheckFlowDetectsViolations(t *testing.T) {
	g := New(3)
	a := g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	g.Freeze()
	// Conservation violation at vertex 1.
	g.Flow[a] = 3
	g.Flow[a^1] = -3
	if _, err := g.CheckFlow(0, 2); err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Errorf("conservation violation not detected: %v", err)
	}
	// Capacity violation.
	g2 := New(2)
	b := g2.AddEdge(0, 1, 2)
	g2.Flow[b] = 5
	g2.Flow[b^1] = -5
	if _, err := g2.CheckFlow(0, 1); err == nil || !strings.Contains(err.Error(), "exceeds cap") {
		t.Errorf("capacity violation not detected: %v", err)
	}
	// Antisymmetry violation.
	g3 := New(2)
	c := g3.AddEdge(0, 1, 5)
	g3.Flow[c] = 2
	if _, err := g3.CheckFlow(0, 1); err == nil || !strings.Contains(err.Error(), "antisymmetric") {
		t.Errorf("antisymmetry violation not detected: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(2)
	a := g.AddEdge(0, 1, 5)
	c := g.Clone()
	g.Push(a, 5)
	if c.Flow[a] != 0 {
		t.Error("clone shares flow storage")
	}
	c.AddEdge(0, 1, 1)
	if g.M() != 2 {
		t.Error("clone shares arc storage")
	}
}

func TestOutflow(t *testing.T) {
	g := New(3)
	a := g.AddEdge(0, 1, 5)
	b := g.AddEdge(0, 2, 5)
	g.Freeze()
	g.Push(a, 2)
	g.Push(b, 3)
	if g.Outflow(0) != 5 || g.FlowValue(0) != 5 {
		t.Errorf("outflow %d", g.Outflow(0))
	}
	if g.Outflow(1) != -2 {
		t.Errorf("outflow(1) = %d", g.Outflow(1))
	}
}

// TestPushPullInvariant: any sequence of legal pushes keeps antisymmetry
// and capacity constraints (property-based).
func TestPushPullInvariant(t *testing.T) {
	err := quick.Check(func(seed uint64, opsRaw uint8) bool {
		rng := xrand.New(seed)
		g := New(5)
		var arcs []int
		for i := 0; i < 8; i++ {
			arcs = append(arcs, g.AddEdge(rng.Intn(5), rng.Intn(4)+1, int64(rng.Intn(10))+1))
		}
		for op := 0; op < int(opsRaw); op++ {
			a := arcs[rng.Intn(len(arcs))]
			if rng.Bool() {
				a ^= 1
			}
			if r := g.Residual(a); r > 0 {
				g.Push(a, int64(rng.Intn(int(r)))+1)
			}
		}
		for a := 0; a < g.M(); a++ {
			if g.Flow[a] != -g.Flow[a^1] || g.Flow[a] > g.Cap[a] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// drainNet builds the retrieval-shaped test network
// s(0) -> b1(1),b2(2) -> d1(3),d2(4) -> t(5) with two units routed
// through d1 and returns the graph plus the arc ids involved.
func drainNet(t *testing.T) (g *Graph, src1, src2, b1d1, b2d1, d1t, d2t int) {
	t.Helper()
	g = New(6)
	src1 = g.AddEdge(0, 1, 1)
	src2 = g.AddEdge(0, 2, 1)
	b1d1 = g.AddEdge(1, 3, 1)
	_ = g.AddEdge(1, 4, 1)
	b2d1 = g.AddEdge(2, 3, 1)
	_ = g.AddEdge(2, 4, 1)
	d1t = g.AddEdge(3, 5, 2)
	d2t = g.AddEdge(4, 5, 2)
	g.Freeze()
	for _, a := range []int{src1, b1d1, src2, b2d1} {
		g.Push(a, 1)
	}
	g.Push(d1t, 2)
	if _, err := g.CheckFlow(0, 5); err != nil {
		t.Fatalf("setup flow invalid: %v", err)
	}
	return
}

func TestDrainExcessCancelsWholePaths(t *testing.T) {
	g, src1, src2, _, _, d1t, d2t := drainNet(t)
	// Lower d1->t below its flow: one unit must be cancelled all the way
	// back to the source.
	g.SetCap(d1t, 1)
	if got := g.DrainExcess(0, 5); got != 1 {
		t.Fatalf("DrainExcess cancelled %d units, want 1", got)
	}
	flow, err := g.CheckFlow(0, 5)
	if err != nil {
		t.Fatalf("flow infeasible after drain: %v", err)
	}
	if flow != 1 {
		t.Fatalf("flow %d after drain, want 1", flow)
	}
	if g.Flow[d1t] != 1 {
		t.Fatalf("drained arc carries %d, want 1", g.Flow[d1t])
	}
	// Exactly one of the two source arcs must have been un-routed.
	if g.Flow[src1]+g.Flow[src2] != 1 {
		t.Fatalf("source arcs carry %d+%d, want total 1", g.Flow[src1], g.Flow[src2])
	}
	if g.Flow[d2t] != 0 {
		t.Fatalf("untouched disk arc carries %d, want 0", g.Flow[d2t])
	}
}

func TestDrainExcessToZeroAndNoop(t *testing.T) {
	g, _, _, _, _, d1t, _ := drainNet(t)
	if got := g.DrainExcess(0, 5); got != 0 {
		t.Fatalf("feasible graph drained %d units, want 0", got)
	}
	g.SetCap(d1t, 0)
	if got := g.DrainExcess(0, 5); got != 2 {
		t.Fatalf("DrainExcess cancelled %d units, want 2", got)
	}
	flow, err := g.CheckFlow(0, 5)
	if err != nil {
		t.Fatalf("flow infeasible after drain: %v", err)
	}
	if flow != 0 {
		t.Fatalf("flow %d after full drain, want 0", flow)
	}
	for a := 0; a < g.M(); a++ {
		if g.Flow[a] != 0 {
			t.Fatalf("arc %d still carries %d after full drain", a, g.Flow[a])
		}
	}
}

func TestDrainExcessMidPathArc(t *testing.T) {
	// Lowering a bucket->disk arc (mid-path) must cancel backward to s and
	// forward to t.
	g, src1, _, b1d1, _, d1t, _ := drainNet(t)
	g.SetCap(b1d1, 0)
	if got := g.DrainExcess(0, 5); got != 1 {
		t.Fatalf("DrainExcess cancelled %d units, want 1", got)
	}
	if _, err := g.CheckFlow(0, 5); err != nil {
		t.Fatalf("flow infeasible after drain: %v", err)
	}
	if g.Flow[src1] != 0 || g.Flow[d1t] != 1 {
		t.Fatalf("src1=%d d1t=%d after mid-path drain, want 0 and 1", g.Flow[src1], g.Flow[d1t])
	}
}
