// Package roster is the one list of the analyzers cmd/imflow-lint runs.
// The driver and the whole-repository tests in internal/analysis both
// read it, so adding or deleting an analyzer edits this file alone.
package roster

import (
	"time"

	"imflow/internal/analysis"
	"imflow/internal/analysis/callgraph"
	"imflow/internal/analysis/ctxleak"
	"imflow/internal/analysis/directive"
	"imflow/internal/analysis/erruse"
	"imflow/internal/analysis/lockguard"
	"imflow/internal/analysis/noalloc"
	"imflow/internal/analysis/sattaint"
)

// Packages is the per-package analyzer set, in documentation order.
var Packages = []*analysis.Analyzer{
	sattaint.Analyzer,
	lockguard.Analyzer,
	noalloc.Analyzer,
	erruse.Analyzer,
	directive.Analyzer,
}

// Module is the interprocedural set, run once over the call graph of
// everything loaded rather than package by package. noalloc.Transitive
// shares the "noalloc" name (and suppression grammar) with its
// per-package half.
var Module = []*callgraph.Analyzer{
	noalloc.Transitive,
	ctxleak.Analyzer,
}

// Names is the set of analyzer names a //lint:ignore comment may
// reference; "suppress" covers findings about suppressions themselves.
func Names() map[string]bool {
	known := map[string]bool{"suppress": true}
	for _, a := range Packages {
		known[a.Name] = true
	}
	for _, a := range Module {
		known[a.Name] = true
	}
	return known
}

// Run applies the whole roster to pkgs: each per-package analyzer, then
// the module tier over one call graph of pkgs. It returns the findings
// in analysis.SortDiagnostics order. When timings is non-nil, each
// analyzer's wall time is added under its name (the two noalloc halves
// share one entry) and the call graph's construction under "callgraph".
func Run(pkgs []*analysis.Package, timings map[string]time.Duration) ([]analysis.Diagnostic, error) {
	clock := func(name string, start time.Time) {
		if timings != nil {
			timings[name] += time.Since(start)
		}
	}
	var diags []analysis.Diagnostic
	for _, a := range Packages {
		start := time.Now()
		d, err := analysis.Run([]*analysis.Analyzer{a}, pkgs)
		if err != nil {
			return nil, err
		}
		clock(a.Name, start)
		diags = append(diags, d...)
	}
	start := time.Now()
	graph, err := callgraph.Build(pkgs)
	if err != nil {
		return nil, err
	}
	clock("callgraph", start)
	for _, a := range Module {
		start := time.Now()
		d, err := callgraph.Run([]*callgraph.Analyzer{a}, graph)
		if err != nil {
			return nil, err
		}
		clock(a.Name, start)
		diags = append(diags, d...)
	}
	analysis.SortDiagnostics(diags)
	return diags, nil
}
