// Package dataflow is the intraprocedural dataflow engine the
// flow-sensitive sattaint analyzer is built on. Where the syntactic
// analyzers in sibling packages inspect one expression at a time, this
// engine answers the question "can a value with property P reach this
// expression?" by propagating facts through the assignment structure of
// a package to a fixpoint:
//
//   - plain and short-variable assignments (x = e, x := e), including
//     tuple forms fed by multi-result calls;
//   - compound assignments (x += e) and range bindings (for _, v := range xs);
//   - struct fields, field-based: a field assigned a tainted value
//     anywhere in the package taints every read of that field (x.F = e
//     and composite literals T{F: e} both write the field);
//   - containers, element-insensitively: a slice, array, map, or pointer
//     holding tainted elements is tainted as a whole, and indexing or
//     dereferencing it yields a tainted value;
//   - function results, via per-function summaries: a function that can
//     return a tainted value at result index i taints that index at every
//     statically resolved intra-package call site;
//   - parameters, at resolved intra-package call sites: a tainted
//     argument taints the callee's parameter object.
//
// The analysis is monotone (facts are only ever added), so the sweep
// loop terminates; it is flow-insensitive *within* a function body
// (an assignment anywhere in the body taints the variable everywhere),
// which over-approximates in the sound direction for "may carry"
// questions. Cross-package flows are not tracked: a value laundered
// through an external function's result is invisible, a documented
// soundness caveat shared with the callgraph tier (DESIGN.md §14).
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"imflow/internal/analysis"
)

// Config configures one taint analysis.
type Config struct {
	// Source reports whether expr is a taint source by itself (before any
	// propagation), e.g. "a conversion of cost.Micros to int64".
	Source func(info *types.Info, e ast.Expr) bool
	// Carries reports whether a value of type t can carry the tracked
	// property. Objects whose type cannot carry are never tainted, which
	// keeps the fact sets small and stops propagation through unrelated
	// types (bools, strings, ...). Containers are handled by the engine:
	// a slice/array/map/pointer carries when its element type does.
	Carries func(t types.Type) bool
}

// Taint is the result of one fixpoint run over a package. Query it with
// Tainted after Run returns.
type Taint struct {
	cfg  Config
	pkg  *analysis.Package
	info *types.Info

	objs    map[types.Object]bool // tainted variables (locals, params, globals)
	fields  map[types.Object]bool // tainted struct fields, field-based
	results map[types.Object][]bool
	decls   map[types.Object]*ast.FuncDecl

	changed bool
}

// maxSweeps bounds the fixpoint loop defensively; the analysis is
// monotone over a finite fact set, so the bound is unreachable in
// practice.
const maxSweeps = 1000

// Run propagates cfg's taint through pkg to a fixpoint.
func Run(pkg *analysis.Package, cfg Config) *Taint {
	t := &Taint{
		cfg:     cfg,
		pkg:     pkg,
		info:    pkg.Info,
		objs:    map[types.Object]bool{},
		fields:  map[types.Object]bool{},
		results: map[types.Object][]bool{},
		decls:   map[types.Object]*ast.FuncDecl{},
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					t.decls[fn] = fd
				}
			}
		}
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		t.changed = false
		for _, f := range t.pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body != nil {
						t.sweepFunc(d)
					}
				case *ast.GenDecl:
					t.sweepGenDecl(d)
				}
			}
		}
		if !t.changed {
			break
		}
	}
	return t
}

// Tainted reports whether expr can evaluate to a tainted value, after the
// fixpoint. Use it for value sinks (operands of arithmetic).
func (t *Taint) Tainted(e ast.Expr) bool { return t.expr(e) }

// LValueTainted reports whether the storage location expr denotes is
// tainted — the sink query for compound assignments and ++/--.
func (t *Taint) LValueTainted(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return t.objs[t.objOf(e)]
	case *ast.SelectorExpr:
		if f := t.fieldOf(e); f != nil {
			return t.fields[f]
		}
		return t.expr(e)
	default:
		return t.expr(e)
	}
}

// mark taints an object, recording the change for the fixpoint loop.
func (t *Taint) mark(m map[types.Object]bool, o types.Object) {
	if o == nil || m[o] {
		return
	}
	m[o] = true
	t.changed = true
}

// objOf resolves an identifier to its object (definition or use).
func (t *Taint) objOf(id *ast.Ident) types.Object {
	if o := t.info.Defs[id]; o != nil {
		return o
	}
	return t.info.Uses[id]
}

// fieldOf resolves a selector to the struct field it denotes, nil when it
// is not a field selection.
func (t *Taint) fieldOf(sel *ast.SelectorExpr) types.Object {
	if s, ok := t.info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return s.Obj()
	}
	return nil
}

// carries reports whether a value of type typ can carry taint, looking
// through containers and pointers.
func (t *Taint) carries(typ types.Type) bool {
	for depth := 0; typ != nil && depth < 8; depth++ {
		if t.cfg.Carries(typ) {
			return true
		}
		switch u := typ.Underlying().(type) {
		case *types.Slice:
			typ = u.Elem()
		case *types.Array:
			typ = u.Elem()
		case *types.Map:
			typ = u.Elem()
		case *types.Pointer:
			typ = u.Elem()
		default:
			return false
		}
	}
	return false
}

func (t *Taint) typeOf(e ast.Expr) types.Type {
	if tv, ok := t.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// expr reports whether e can evaluate to a tainted value under the
// current fact set.
func (t *Taint) expr(e ast.Expr) bool {
	if e == nil {
		return false
	}
	if t.cfg.Source != nil && t.cfg.Source(t.info, e) {
		return true
	}
	switch e := e.(type) {
	case *ast.Ident:
		return t.objs[t.objOf(e)]
	case *ast.ParenExpr:
		return t.expr(e.X)
	case *ast.SelectorExpr:
		if f := t.fieldOf(e); f != nil {
			if t.fields[f] {
				return true
			}
			// A tainted struct value taints its carrying fields.
			return t.carries(t.typeOf(e)) && t.expr(e.X)
		}
		// Qualified identifier (pkg.V) or method value.
		if o := t.info.Uses[e.Sel]; o != nil {
			return t.objs[o]
		}
		return false
	case *ast.IndexExpr:
		return t.expr(e.X)
	case *ast.StarExpr:
		return t.expr(e.X)
	case *ast.UnaryExpr:
		return t.expr(e.X)
	case *ast.TypeAssertExpr:
		return t.expr(e.X)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.AND, token.OR, token.XOR, token.AND_NOT, token.SHL, token.SHR:
			return t.expr(e.X) || t.expr(e.Y)
		}
		return false // comparisons and logic yield untainted bools
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if t.expr(v) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return t.call(e)
	case *ast.SliceExpr:
		return t.expr(e.X)
	}
	return false
}

// call reports whether a call (or conversion) expression yields a tainted
// single value.
func (t *Taint) call(call *ast.CallExpr) bool {
	if tv, ok := t.info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion T(x): taint flows through when T can carry it.
		return len(call.Args) == 1 && t.carries(tv.Type) && t.expr(call.Args[0])
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := t.info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append", "min", "max":
				for _, a := range call.Args {
					if t.expr(a) {
						return true
					}
				}
			}
			return false
		}
	}
	if s := t.summary(call); len(s) == 1 {
		return s[0]
	}
	return false
}

// summary returns the per-result taint summary of a statically resolved
// intra-package callee, nil when the callee is unknown or external.
func (t *Taint) summary(call *ast.CallExpr) []bool {
	fn := t.callee(call)
	if fn == nil {
		return nil
	}
	return t.results[fn]
}

// callee resolves a call to the *types.Func it targets, nil for dynamic
// calls, conversions, and builtins.
func (t *Taint) callee(call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := t.info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := t.info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// taintLValue records that the location e was assigned a tainted value.
func (t *Taint) taintLValue(e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			o := t.objOf(x)
			if o != nil && t.carries(o.Type()) {
				t.mark(t.objs, o)
			}
			return
		case *ast.SelectorExpr:
			if f := t.fieldOf(x); f != nil {
				if t.carries(f.Type()) {
					t.mark(t.fields, f)
				}
				return
			}
			if o := t.info.Uses[x.Sel]; o != nil { // qualified pkg.V
				if t.carries(o.Type()) {
					t.mark(t.objs, o)
				}
				return
			}
			return
		case *ast.IndexExpr:
			e = x.X // writing an element taints the container
		case *ast.StarExpr:
			e = x.X // writing through a pointer taints the pointer object
		case *ast.ParenExpr:
			e = x.X
		default:
			return
		}
	}
}

// sweepGenDecl propagates through package-level var initializers.
func (t *Taint) sweepGenDecl(d *ast.GenDecl) {
	if d.Tok != token.VAR {
		return
	}
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		t.assignSpec(vs)
	}
}

// assignSpec handles var name1, name2 = e1, e2 (and tuple forms).
func (t *Taint) assignSpec(vs *ast.ValueSpec) {
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
			for i, s := range t.summary(call) {
				if s && i < len(vs.Names) {
					t.taintLValue(vs.Names[i])
				}
			}
		}
		return
	}
	for i, v := range vs.Values {
		if i < len(vs.Names) && t.expr(v) {
			t.taintLValue(vs.Names[i])
		}
	}
}

// sweepFunc propagates taint through one function body and updates the
// function's result summary.
func (t *Taint) sweepFunc(fd *ast.FuncDecl) {
	fn, _ := t.info.Defs[fd.Name].(*types.Func)
	sig, _ := fn.Type().(*types.Signature)
	var resObjs []types.Object // named result objects, index-aligned
	if sig != nil && sig.Results() != nil {
		resObjs = make([]types.Object, sig.Results().Len())
		for i := 0; i < sig.Results().Len(); i++ {
			if v := sig.Results().At(i); v.Name() != "" {
				resObjs[i] = v
			}
		}
		if _, ok := t.results[fn]; !ok {
			t.results[fn] = make([]bool, sig.Results().Len())
		}
	}
	markResult := func(i int) {
		s := t.results[fn]
		if i < len(s) && !s[i] {
			s[i] = true
			t.changed = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			t.sweepAssign(n)
		case *ast.GenDecl:
			t.sweepGenDecl(n)
		case *ast.RangeStmt:
			if t.expr(n.X) {
				if n.Value != nil {
					t.taintLValue(n.Value)
				}
				// Keys are indices (untainted) for slices; for maps the key
				// type rarely carries — element taint covers the flows the
				// sinks care about.
			}
		case *ast.ReturnStmt:
			if fn == nil {
				return true
			}
			if len(n.Results) == 0 {
				for i, o := range resObjs {
					if o != nil && t.objs[o] {
						markResult(i)
					}
				}
				return true
			}
			if len(n.Results) == 1 && len(t.results[fn]) > 1 {
				if call, ok := ast.Unparen(n.Results[0]).(*ast.CallExpr); ok {
					for i, s := range t.summary(call) {
						if s {
							markResult(i)
						}
					}
				}
				return true
			}
			for i, r := range n.Results {
				if t.expr(r) {
					markResult(i)
				}
			}
		case *ast.CompositeLit:
			t.sweepCompositeLit(n)
		case *ast.CallExpr:
			t.sweepCallArgs(n)
		}
		return true
	})
}

// sweepAssign handles =, :=, and the compound assignment forms.
func (t *Taint) sweepAssign(n *ast.AssignStmt) {
	switch n.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
			// Tuple: x, y := f() / v, ok := m[k] / v, ok := x.(T).
			switch rhs := ast.Unparen(n.Rhs[0]).(type) {
			case *ast.CallExpr:
				for i, s := range t.summary(rhs) {
					if s && i < len(n.Lhs) {
						t.taintLValue(n.Lhs[i])
					}
				}
			case *ast.IndexExpr, *ast.TypeAssertExpr, *ast.UnaryExpr:
				// v, ok := m[k] / x.(T) / <-ch: value taint, untainted ok.
				if t.expr(rhs) {
					t.taintLValue(n.Lhs[0])
				}
			}
			return
		}
		for i, rhs := range n.Rhs {
			if i < len(n.Lhs) && t.expr(rhs) {
				t.taintLValue(n.Lhs[i])
			}
		}
	default:
		// Compound x op= e: the target stays itself plus e.
		if len(n.Lhs) == 1 && len(n.Rhs) == 1 && t.expr(n.Rhs[0]) {
			t.taintLValue(n.Lhs[0])
		}
	}
}

// sweepCompositeLit records struct-literal field writes.
func (t *Taint) sweepCompositeLit(lit *ast.CompositeLit) {
	typ := t.typeOf(lit)
	if typ == nil {
		return
	}
	st, ok := typ.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if !t.expr(kv.Value) {
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); ok {
				if f := t.info.Uses[id]; f != nil && t.carries(f.Type()) {
					t.mark(t.fields, f)
				}
			}
			continue
		}
		if i < st.NumFields() && t.expr(el) {
			f := st.Field(i)
			if t.carries(f.Type()) {
				t.mark(t.fields, f)
			}
		}
	}
}

// sweepCallArgs taints the parameters of resolved intra-package callees
// fed tainted arguments.
func (t *Taint) sweepCallArgs(call *ast.CallExpr) {
	fn := t.callee(call)
	if fn == nil {
		return
	}
	fd, ok := t.decls[fn]
	if !ok || fd.Type.Params == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if !t.expr(arg) {
			continue
		}
		pi := i
		if sig.Variadic() && pi >= params.Len()-1 {
			pi = params.Len() - 1
		}
		if pi < params.Len() {
			p := params.At(pi)
			if t.carries(p.Type()) {
				t.mark(t.objs, p)
			}
		}
	}
}
