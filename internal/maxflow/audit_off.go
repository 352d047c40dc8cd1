//go:build !imflow_audit

package maxflow

import "imflow/internal/flowgraph"

// AuditEnabled reports whether the imflow_audit build tag compiled the
// runtime verification hooks in. Without the tag the hooks below are
// empty functions the compiler erases, so the hot paths pay nothing.
const AuditEnabled = false

// AuditFlow is a no-op without the imflow_audit build tag.
func AuditFlow(g *flowgraph.Graph, s, t int) {}

// Audit is a no-op without the imflow_audit build tag.
func Audit(g *flowgraph.Graph, s, t int) {}

// auditLabels is a no-op without the imflow_audit build tag.
func auditLabels(pr *PushRelabel, s, t int) {}
