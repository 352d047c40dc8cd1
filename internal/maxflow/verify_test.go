package maxflow

import (
	"strings"
	"testing"

	"imflow/internal/flowgraph"
)

// solvedPath returns the solved two-edge path 0 --5--> 1 --5--> 2.
func solvedPath(t *testing.T) *flowgraph.Graph {
	t.Helper()
	g := flowgraph.New(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	g.Freeze()
	if got := NewEdmondsKarp(g).Run(0, 2); got != 5 {
		t.Fatalf("path flow %d, want 5", got)
	}
	return g
}

func wantVerifyError(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected error containing %q, got nil", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err, substr)
	}
}

func TestVerifyFlowValue(t *testing.T) {
	g, s, snk := buildFixed()
	NewDinic(g).Run(s, snk)
	v, err := VerifyFlow(g, s, snk)
	if err != nil {
		t.Fatalf("VerifyFlow: %v", err)
	}
	if v != 23 {
		t.Fatalf("VerifyFlow value %d, want 23", v)
	}
}

func TestVerifyFlowZeroFlowIsFeasible(t *testing.T) {
	g, s, snk := buildFixed()
	v, err := VerifyFlow(g, s, snk)
	if err != nil || v != 0 {
		t.Fatalf("zero flow: got %d, %v", v, err)
	}
}

func TestVerifyFlowBadEndpoints(t *testing.T) {
	g := solvedPath(t)
	_, err := VerifyFlow(g, 1, 1)
	wantVerifyError(t, err, "bad endpoints")
	_, err = VerifyFlow(g, -1, 2)
	wantVerifyError(t, err, "bad endpoints")
	_, err = VerifyFlow(g, 0, 3)
	wantVerifyError(t, err, "bad endpoints")
}

func TestVerifyFlowOddArcCount(t *testing.T) {
	g := solvedPath(t)
	g.To = append(g.To, 0) // corrupt: break the arc pairing
	_, err := VerifyFlow(g, 0, 2)
	wantVerifyError(t, err, "odd arc count")
}

func TestVerifyFlowNegativeCapacity(t *testing.T) {
	g := solvedPath(t)
	g.Cap[0] = -1
	_, err := VerifyFlow(g, 0, 2)
	wantVerifyError(t, err, "negative capacity")
}

func TestVerifyFlowCapacityViolation(t *testing.T) {
	g := solvedPath(t)
	g.Flow[0] = g.Cap[0] + 1
	g.Flow[1] = -g.Flow[0] // keep antisymmetry so the capacity check fires
	_, err := VerifyFlow(g, 0, 2)
	wantVerifyError(t, err, "exceeds capacity")
}

func TestVerifyFlowAntisymmetryViolation(t *testing.T) {
	g := solvedPath(t)
	g.Flow[0]-- // corrupt one side of the pair only
	_, err := VerifyFlow(g, 0, 2)
	wantVerifyError(t, err, "not antisymmetric")
}

func TestVerifyFlowConservationViolation(t *testing.T) {
	g := solvedPath(t)
	// Lower the first edge's flow consistently (both duals): vertex 1 now
	// emits more than it receives.
	g.Flow[0]--
	g.Flow[1]++
	_, err := VerifyFlow(g, 0, 2)
	wantVerifyError(t, err, "conservation")
}

func TestVerifyCertificateRejectsMalformedCuts(t *testing.T) {
	g := solvedPath(t)
	wantVerifyError(t, VerifyCertificate(g, []bool{true, false}, 0, 2), "entries")
	wantVerifyError(t, VerifyCertificate(g, []bool{false, false, false}, 0, 2), "source")
	wantVerifyError(t, VerifyCertificate(g, []bool{true, false, true}, 0, 2), "sink")
}

func TestVerifyCertificateRejectsCrossingResidual(t *testing.T) {
	g := flowgraph.New(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	// Zero flow: the cut {0} is crossed by 0->1 with residual 5, and its
	// capacity (5) exceeds the flow value (0).
	err := VerifyCertificate(g, []bool{true, false, false}, 0, 2)
	wantVerifyError(t, err, "crosses the cut")
}

func TestCertifyRejectsNonMaximalFlow(t *testing.T) {
	g := flowgraph.New(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	g.Freeze()
	// With zero flow the residual graph reaches the sink, so the induced
	// "cut" contains it.
	wantVerifyError(t, Certify(g, 0, 2), "sink")
}

func TestCertifyAcceptsEveryEngine(t *testing.T) {
	for _, mk := range allEngines {
		g, s, snk := buildFixed()
		e := mk(g)
		e.Run(s, snk)
		if err := Certify(g, s, snk); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
}
