// Package noalloc implements the analyzers that keep the repository's
// declared steady-state hot paths free of allocating constructs.
//
// A function marked //imflow:noalloc — the ReusableSolver.SolveInto
// implementations and the serve worker's batch loop — is one the
// AllocsPerRun gates require to perform zero heap allocations once its
// pinned buffers have converged. The dynamic gates only measure the
// configurations the benchmarks happen to run; these analyzers reject the
// allocating constructs *syntactically*, in every build:
//
//   - make and new;
//   - composite literals whose address is taken (&T{...}) and slice or
//     map literals, which always heap-allocate their backing store;
//   - append whose destination is not rooted at the function's receiver
//     (receiver-owned slices amortize to zero allocations as their
//     capacity converges; anything else is a fresh backing array in
//     steady state);
//   - function literals (closure environments live on the heap);
//   - go statements (every spawn allocates a goroutine);
//   - any call into package fmt (formatting allocates);
//   - string concatenation;
//   - implicit interface conversions at call sites and returns (boxing
//     a concrete value allocates).
//
// Two analyzers share those rules. Analyzer (per package) checks the body
// of every annotated function. Transitive (module-level, on the call
// graph) extends the claim interprocedurally: an annotated function may
// not *reach* a function containing an allocating construct through any
// chain of resolved calls, and a violation prints the witness chain. The
// boundary annotation //imflow:allocok marks a function whose allocations
// are reviewed as amortized or cold (buffer growth such as
// flowgraph.Resize, one-shot construction); the transitive walk treats it
// as a leaf and does not descend. Cold paths inside a hot function —
// first-call lazy initialization, error exits that abort the solve —
// carry a reasoned //lint:ignore noalloc suppression instead, which both
// silences the intra-function finding and prunes the suppressed line's
// calls from the transitive walk.
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"imflow/internal/analysis"
	"imflow/internal/analysis/callgraph"
)

// Directive marks a function whose body must not allocate in steady
// state.
const Directive = "//imflow:noalloc"

// DirectiveAllocOK marks a reviewed allocation boundary: a function whose
// allocations are amortized (capacity growth that converges) or cold
// (construction, teardown). The transitive analyzer does not descend into
// it and its own sites are exempt.
const DirectiveAllocOK = "//imflow:allocok"

// Analyzer is the per-package noalloc analyzer: annotated bodies contain
// no allocating constructs.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "functions marked //imflow:noalloc may not contain allocating constructs",
	Run:  run,
}

// Transitive is the module-level noalloc analyzer: annotated functions
// may not reach an allocating function through any resolved call chain.
var Transitive = &callgraph.Analyzer{
	Name: "noalloc",
	Doc:  "//imflow:noalloc functions may not reach an allocating function through any call chain (boundary: //imflow:allocok)",
	Run:  runTransitive,
}

// site is one allocating construct: the fact unit both analyzers report.
type site struct {
	pos token.Pos
	msg string
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !analysis.HasDirective(fd.Doc, Directive) {
				continue
			}
			for _, s := range collect(pass.Info, fd) {
				pass.Reportf(s.pos, "%s in //imflow:noalloc function %s", s.msg, fd.Name.Name)
			}
		}
	}
	return nil
}

// runTransitive walks the call graph from every annotated function and
// reports the shortest witness chain to each reachable allocating
// function. Chains are cut at //imflow:allocok boundaries and at call
// sites suppressed with //lint:ignore noalloc (a reviewed cold path).
func runTransitive(pass *callgraph.Pass) error {
	g := pass.Graph
	type facts struct {
		sites    []site
		boundary bool
	}
	suppressed := map[*analysis.Package]map[string]map[int]bool{}
	lines := func(pkg *analysis.Package) map[string]map[int]bool {
		m, ok := suppressed[pkg]
		if !ok {
			m = analysis.SuppressedLines(pkg, Analyzer.Name)
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
		f := &facts{boundary: analysis.HasDirective(n.Decl.Doc, DirectiveAllocOK)}
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
			// The go statement itself is an intra-function site; the
			// spawned work is not the caller's steady-state path.
			return false
		}
		return e.Callee != nil && !factOf[e.Callee].boundary && !onSuppressedLine(e.Caller, e.Pos)
	}
	for _, root := range g.SortedNodes() {
		if !analysis.HasDirective(root.Decl.Doc, Directive) {
			continue
		}
		// Breadth-first: every reachable offender is reported once, with
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
					// The callee's name locates the site; a file position
					// would tie baseline records to one checkout and go
					// stale on any line drift.
					pass.Reportf(root, path[0].Pos,
						"//imflow:noalloc function %s reaches allocating function %s (%s) via %s",
						root.Name(), e.Callee.Name(), s.msg, callgraph.FormatPath(path))
				}
				queue = append(queue, item{node: e.Callee, via: path})
			}
		}
	}
	return nil
}

// receiverName returns the name of fd's receiver, "" for functions and
// anonymous receivers.
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// collect gathers every allocating construct in fd's body — the shared
// fact summary of the per-package and transitive analyzers.
func collect(info *types.Info, fd *ast.FuncDecl) []site {
	var sites []site
	add := func(pos token.Pos, format string, args ...any) {
		sites = append(sites, site{pos: pos, msg: fmt.Sprintf(format, args...)})
	}
	recv := receiverName(fd)
	results := resultTypes(info, fd)
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(info, add, n, recv)
		case *ast.CompositeLit:
			checkCompositeLit(info, add, n, stack)
		case *ast.GoStmt:
			add(n.Pos(), "go statement allocates a goroutine")
		case *ast.FuncLit:
			add(n.Pos(), "closure allocates its environment")
			// The literal's body is not part of the hot path: skip it.
			// Inspect makes no closing nil call after a false return, so
			// pop the frame here.
			stack = stack[:len(stack)-1]
			return false
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(typeOf(info, n)) {
				if tv, ok := info.Types[n]; ok && tv.Value != nil {
					return true // constant-folded at compile time
				}
				add(n.OpPos, "string concatenation allocates")
			}
		case *ast.ReturnStmt:
			for i, res := range n.Results {
				if i < len(results) && boxes(info, results[i], res) {
					add(res.Pos(), "return boxes %s into interface %s", typeOf(info, res), results[i])
				}
			}
		}
		return true
	})
	return sites
}

// resultTypes returns the declared result types of fd.
func resultTypes(info *types.Info, fd *ast.FuncDecl) []types.Type {
	var out []types.Type
	if fd.Type.Results == nil {
		return out
	}
	for _, field := range fd.Type.Results.List {
		t := typeOf(info, field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, t)
		}
	}
	return out
}

func checkCall(info *types.Info, add func(token.Pos, string, ...any), call *ast.CallExpr, recv string) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion T(x): allocates only when T is an interface.
		if len(call.Args) == 1 && boxes(info, tv.Type, call.Args[0]) {
			add(call.Pos(), "conversion boxes %s into interface %s", typeOf(info, call.Args[0]), tv.Type)
		}
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				add(call.Pos(), "%s allocates", id.Name)
			case "append":
				if len(call.Args) > 0 && !rootedAt(call.Args[0], recv) {
					add(call.Pos(), "append to a slice not owned by the receiver allocates")
				}
			}
			return
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pkg, ok := info.Uses[id].(*types.PkgName); ok && pkg.Imported().Path() == "fmt" {
				add(call.Pos(), "fmt.%s allocates", sel.Sel.Name)
				return
			}
		}
	}
	// Implicit interface conversions of the arguments.
	sig, ok := typeOf(info, call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if pt := paramType(sig, i, call); boxes(info, pt, arg) {
			add(arg.Pos(), "argument boxes %s into interface %s", typeOf(info, arg), pt)
		}
	}
}

// paramType returns the type of the i-th argument's parameter, unrolling
// variadic tails (nil for a spread call's slice argument).
func paramType(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	if sig.Variadic() && i >= params.Len()-1 {
		if call.Ellipsis.IsValid() {
			return nil // a []T passed as T... is not boxed per element
		}
		s, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice)
		if !ok {
			return nil
		}
		return s.Elem()
	}
	if i >= params.Len() {
		return nil
	}
	return params.At(i).Type()
}

// checkCompositeLit flags literals that must heap-allocate: slice and map
// literals, and struct literals whose address is taken.
func checkCompositeLit(info *types.Info, add func(token.Pos, string, ...any), lit *ast.CompositeLit, stack []ast.Node) {
	t := typeOf(info, lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		add(lit.Pos(), "%s literal allocates its backing store", t)
		return
	}
	if addr, ok := parent(stack, 1).(*ast.UnaryExpr); ok && addr.Op == token.AND && addr.X == ast.Expr(lit) {
		add(lit.Pos(), "&%s literal escapes to the heap", t)
	}
}

// isString reports whether t is a string type.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func parent(stack []ast.Node, n int) ast.Node {
	i := len(stack) - 1 - n
	if i < 0 {
		return nil
	}
	return stack[i]
}

// rootedAt reports whether expr is a selector/index chain rooted at the
// identifier named root (e.g. w.batch, w.res.Schedule.Counts[i]).
func rootedAt(expr ast.Expr, root string) bool {
	if root == "" {
		return false
	}
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e.Name == root
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return false
		}
	}
}

// boxes reports whether assigning expr to a target of type dst is an
// interface conversion that must box a concrete value.
func boxes(info *types.Info, dst types.Type, expr ast.Expr) bool {
	if dst == nil || expr == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	src := typeOf(info, expr)
	if src == nil {
		return false
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false // nil interface, no allocation
	}
	if _, ok := src.Underlying().(*types.Interface); ok {
		return false // interface-to-interface, no boxing
	}
	if _, ok := src.Underlying().(*types.Pointer); ok {
		return false // pointers fit an iface word without allocating
	}
	return true
}
