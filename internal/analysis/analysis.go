// Package analysis is a minimal static-analysis framework in the spirit of
// golang.org/x/tools/go/analysis, implemented entirely with the standard
// library so the repository stays dependency-free.
//
// An Analyzer inspects one type-checked package at a time through a Pass
// and reports Diagnostics. Packages are loaded by Load (go-list patterns)
// or LoadDir (a bare directory of Go files, used for analyzer test
// fixtures); both obtain type information for dependencies from the gc
// export data that `go list -export` materializes in the build cache, so
// loading works offline and never compiles anything twice.
//
// The analyzers live in the subpackages, the roster subpackage lists
// them once (see DESIGN.md "Correctness tooling"), and cmd/imflow-lint is
// the multichecker-style driver that runs them all.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package. It reports findings through
	// pass.Report and returns an error only for internal failures (an
	// analyzer that finds violations still returns nil).
	Run func(pass *Pass) error
}

// Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package, one package at a time,
// and returns all diagnostics in SortDiagnostics order.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders findings by position, then analyzer, then
// message — a total order, so any diagnostic set renders identically
// run over run (the -json CI artifact depends on this stability).
// Drivers that merge per-package and module-level diagnostic streams
// re-sort the combined slice with it.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// HasDirective reports whether the comment group contains the given
// directive comment (exact line, e.g. "//imflow:noalloc"). Directive
// lines follow the Go convention //tool:verb — no space after the slashes
// — so go/doc hides them from rendered documentation.
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive {
			return true
		}
	}
	return false
}
