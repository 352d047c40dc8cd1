package callgraph

import (
	"fmt"
	"go/token"

	"imflow/internal/analysis"
)

// Analyzer is a module-level analyzer: where analysis.Analyzer sees one
// package at a time, a callgraph.Analyzer sees the whole loaded module
// through its call graph.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass) error
}

// Pass presents the call graph to one module analyzer.
type Pass struct {
	Analyzer *Analyzer
	Graph    *Graph

	diags *[]analysis.Diagnostic
}

// Reportf records a diagnostic at pos, resolved through the reporting
// node's file set.
func (p *Pass) Reportf(node *Node, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, analysis.Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      node.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every module analyzer to the graph and returns the merged
// diagnostics, sorted in the same total order analysis.Run uses.
func Run(analyzers []*Analyzer, g *Graph) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Graph: g, diags: &diags}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	analysis.SortDiagnostics(diags)
	return diags, nil
}

// PathTo runs a breadth-first search from start following edges for which
// follow returns true, until goal returns true for a node; it returns the
// edge sequence of a shortest such path (nil when unreachable). goal may
// hold for start itself, yielding an empty, non-nil path.
func (g *Graph) PathTo(start *Node, goal func(*Node) bool, follow func(Edge) bool) []Edge {
	if goal(start) {
		return []Edge{}
	}
	type item struct {
		node *Node
		via  []Edge
	}
	seen := map[*Node]bool{start: true}
	queue := []item{{node: start}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range cur.node.Out {
			if e.Callee == nil || !follow(e) || seen[e.Callee] {
				continue
			}
			seen[e.Callee] = true
			path := append(append([]Edge{}, cur.via...), e)
			if goal(e.Callee) {
				return path
			}
			queue = append(queue, item{node: e.Callee, via: path})
		}
	}
	return nil
}

// FormatPath renders an edge path as "f → g → h" starting from the
// caller of the first edge.
func FormatPath(path []Edge) string {
	if len(path) == 0 {
		return ""
	}
	s := path[0].Caller.Name()
	for _, e := range path {
		s += " → " + e.Callee.Name()
	}
	return s
}
