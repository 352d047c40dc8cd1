//go:build imflow_audit

package maxflow

import (
	"strings"
	"testing"

	"imflow/internal/flowgraph"
	"imflow/internal/xrand"
)

// TestAuditEnabledUnderTag guards the CI invocation: building with
// -tags imflow_audit must actually arm the hooks.
func TestAuditEnabledUnderTag(t *testing.T) {
	if !AuditEnabled {
		t.Fatal("built with imflow_audit but AuditEnabled is false")
	}
}

func TestAuditFlowPanicsOnCorruptFlow(t *testing.T) {
	g := flowgraph.New(2)
	g.AddEdge(0, 1, 3)
	g.Flow[0] = 1 // violates antisymmetry: dual still 0
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("AuditFlow did not panic on corrupt flow")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "imflow_audit") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	AuditFlow(g, 0, 1)
}

func TestAuditPanicsOnNonMaximalFlow(t *testing.T) {
	g := flowgraph.New(2)
	g.AddEdge(0, 1, 3) // zero flow is feasible but not maximal
	g.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Audit did not panic on non-maximal flow")
		}
	}()
	Audit(g, 0, 1)
}

// TestAuditPanicsOnInvalidLabels: Resume's label check must fire when a
// height breaks h(u) <= h(v)+1 on a residual arc the repair does not
// touch. After a Run with nothing changed, a routed bucket is no repair
// seed, so lifting it two above an unused replica's disk must survive
// the repair and trip the audit.
func TestAuditPanicsOnInvalidLabels(t *testing.T) {
	rng := xrand.New(5)
	g, s, snk := bipartiteRetrievalGraph(rng, 30, 4, 30) // every bucket routed
	pr := NewPushRelabel(g)
	pr.Run(s, snk)
	corrupted := false
	for a := 0; a < g.M() && !corrupted; a += 2 {
		u, v := g.To[a^1], g.To[a]
		if int(u) == s || int(v) == snk || g.Residual(a) == 0 || g.Outflow(int(u)) != 0 || g.FlowValue(s) == 0 {
			continue
		}
		routed := false
		for _, b := range g.ArcIdx[g.Start[u]:g.Start[u+1]] {
			if int(g.To[b]) == s && g.Flow[b] < 0 {
				routed = true
			}
		}
		if routed {
			pr.height[u] = pr.height[v] + 2
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("no routed bucket with a residual arc to corrupt")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Resume did not panic on an invalid labelling")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "imflow_audit:") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	pr.Resume(s, snk)
}

func TestAuditAcceptsMaximalFlow(t *testing.T) {
	g, s, snk := buildFixed()
	NewDinic(g).Run(s, snk)
	AuditFlow(g, s, snk)
	Audit(g, s, snk) // must not panic
}
