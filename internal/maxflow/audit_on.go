//go:build imflow_audit

package maxflow

import "imflow/internal/flowgraph"

// AuditEnabled reports whether the imflow_audit build tag compiled the
// runtime verification hooks in.
const AuditEnabled = true

// AuditFlow verifies that the graph's current flow is feasible and
// panics otherwise. The retrieval algorithms call it after intermediate
// steps that restore conservation without reaching a maximum flow (e.g.
// after each bucket's augmentation in the Ford-Fulkerson solvers).
func AuditFlow(g *flowgraph.Graph, s, t int) {
	if _, err := VerifyFlow(g, s, t); err != nil {
		panic("imflow_audit: " + err.Error())
	}
}

// Audit verifies the full max-flow = min-cut certificate of the current
// flow and panics otherwise. The retrieval algorithms call it after
// every max-flow run, so with the imflow_audit tag every integrated
// capacity-scaling step is certified, not just the final answer.
func Audit(g *flowgraph.Graph, s, t int) {
	if err := Certify(g, s, t); err != nil {
		panic("imflow_audit: " + err.Error())
	}
}

// auditLabels verifies that the heights Resume repaired form a valid
// labelling and panics otherwise.
func auditLabels(pr *PushRelabel, s, t int) {
	if err := pr.checkLabels(s, t); err != nil {
		panic("imflow_audit: " + err.Error())
	}
}
