// Package detpath implements the determinism-reachability analyzer: the
// static side of the repository's bit-identity guarantee.
//
// The invariant — warm solves match cold solves, BatchParallelism widths
// never change response times, det-mode serving replays the simulator
// exactly — is
// enforced dynamically by audit-tag tests and -race stress. Those only
// catch a nondeterminism source when a run happens to expose it; this
// analyzer proves the absence of the known source classes on every
// declared deterministic path, in every build.
//
// A function marked //imflow:det is a deterministic root: neither its
// body nor anything it reaches through resolved calls may contain
//
//   - a range over a map (iteration order is randomized per run);
//   - a wall-clock read (time.Now, time.Since, time.Until);
//   - a draw from the global math/rand source (the seeded, replayable
//     internal/xrand is exempt by construction — it is a different
//     import path);
//   - a select with a default clause (the branch taken races the
//     scheduler);
//   - a go statement (fan-out order is unordered; a spawn on a result
//     path needs an order-restoring merge, which is exactly what the
//     boundary/suppression review states).
//
// //imflow:detsafe <reason> marks a reviewed boundary, mirroring
// noalloc's allocok: a function whose internal nondeterminism provably
// does not reach its results (a racy-assignment parallel solver whose
// flow *value* is canonical, an observability-only clock read). The walk
// treats it as a leaf and its own sites are exempt; the reason is
// mandatory (the directive analyzer enforces the grammar). Individual
// sites inside an otherwise-deterministic function opt out per line with
// a reasoned //lint:ignore detpath suppression, which also prunes the
// suppressed line's calls from the walk.
//
// The walk follows static calls and interface dispatch (every concrete
// implementation of the invoked method) but not dynamic function values
// — the callgraph tier's documented soundness caveat (DESIGN.md §11).
package detpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"imflow/internal/analysis"
	"imflow/internal/analysis/callgraph"
)

// Directive marks a deterministic root.
const Directive = "//imflow:det"

// DirectiveDetSafe marks a reviewed determinism boundary; the trailing
// reason is mandatory.
const DirectiveDetSafe = "//imflow:detsafe"

// name identifies the analyzer in diagnostics and suppressions.
const name = "detpath"

// Analyzer is the module-level detpath analyzer.
var Analyzer = &callgraph.Analyzer{
	Name: name,
	Doc:  "//imflow:det functions may not reach a nondeterminism source (map range, wall clock, global math/rand, select-default, goroutine spawn) through any call chain (boundary: //imflow:detsafe <reason>)",
	Run:  run,
}

// site is one nondeterminism source.
type site struct {
	pos token.Pos
	msg string
}

func run(pass *callgraph.Pass) error {
	g := pass.Graph
	type facts struct {
		sites    []site
		boundary bool
	}
	suppressed := map[*analysis.Package]map[string]map[int]bool{}
	lines := func(pkg *analysis.Package) map[string]map[int]bool {
		m, ok := suppressed[pkg]
		if !ok {
			m = analysis.SuppressedLines(pkg, name)
			suppressed[pkg] = m
		}
		return m
	}
	onSuppressedLine := func(n *callgraph.Node, pos token.Pos) bool {
		p := n.Pkg.Fset.Position(pos)
		return lines(n.Pkg)[p.Filename][p.Line]
	}
	factOf := map[*callgraph.Node]*facts{}
	for _, n := range g.Nodes {
		_, boundary := analysis.DirectiveArg(n.Decl.Doc, DirectiveDetSafe)
		f := &facts{boundary: boundary}
		if !f.boundary {
			for _, s := range collect(n.Pkg.Info, n.Decl) {
				if !onSuppressedLine(n, s.pos) {
					f.sites = append(f.sites, s)
				}
			}
		}
		factOf[n] = f
	}
	follow := func(e callgraph.Edge) bool {
		switch e.Kind {
		case callgraph.EdgeSpawn, callgraph.EdgeDynamic:
			// The go statement itself is an intra-function site; what runs
			// inside the goroutine is the merge review's business.
			return false
		}
		return e.Callee != nil && !factOf[e.Callee].boundary && !onSuppressedLine(e.Caller, e.Pos)
	}
	for _, root := range g.SortedNodes() {
		if !analysis.HasDirective(root.Decl.Doc, Directive) {
			continue
		}
		// The root's own sites first, at their own positions.
		for _, s := range factOf[root].sites {
			pass.Reportf(root, s.pos, "%s in //imflow:det function %s", s.msg, root.Name())
		}
		// Then breadth-first: every reachable offender reported once, with
		// a shortest chain as the witness.
		seen := map[*callgraph.Node]bool{root: true}
		type item struct {
			node *callgraph.Node
			via  []callgraph.Edge
		}
		queue := []item{{node: root}}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range cur.node.Out {
				if !follow(e) || seen[e.Callee] {
					continue
				}
				seen[e.Callee] = true
				path := append(append([]callgraph.Edge{}, cur.via...), e)
				if f := factOf[e.Callee]; len(f.sites) > 0 {
					s := f.sites[0]
					pass.Reportf(root, path[0].Pos,
						"//imflow:det function %s reaches nondeterministic function %s (%s at %s) via %s",
						root.Name(), e.Callee.Name(), s.msg,
						pass.Position(e.Callee, s.pos), callgraph.FormatPath(path))
				}
				queue = append(queue, item{node: e.Callee, via: path})
			}
		}
	}
	return nil
}

// collect gathers every nondeterminism source in fd's body (including
// function literals, which the call graph attributes to the enclosing
// declaration).
func collect(info *types.Info, fd *ast.FuncDecl) []site {
	var sites []site
	add := func(pos token.Pos, format string, args ...any) {
		sites = append(sites, site{pos: pos, msg: fmt.Sprintf(format, args...)})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := typeOf(info, n.X); isMap(t) {
				add(n.Range, "range over map %s iterates in nondeterministic order", t)
			}
		case *ast.CallExpr:
			checkCall(info, add, n)
		case *ast.SelectStmt:
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
					add(cc.Pos(), "select with default races the scheduler")
				}
			}
		case *ast.GoStmt:
			add(n.Pos(), "go statement spawns unordered work")
		}
		return true
	})
	return sites
}

// checkCall flags wall-clock reads and draws from the global math/rand
// source.
func checkCall(info *types.Info, add func(token.Pos, string, ...any), call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pkg.Imported().Path() {
	case "time":
		switch sel.Sel.Name {
		case "Now", "Since", "Until":
			add(call.Pos(), "time.%s reads the wall clock", sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		// Package-level draws use the shared, nondeterministically seeded
		// global source. The New* constructors are exempt: an explicitly
		// seeded *rand.Rand replays, and a nondeterministic seed fed to
		// one is already flagged at the seed's own source (time.Now etc.).
		if strings.HasPrefix(sel.Sel.Name, "New") {
			return
		}
		add(call.Pos(), "%s.%s draws from the global math/rand source (use the seeded internal/xrand)", pkg.Imported().Name(), sel.Sel.Name)
	}
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
