// Package sattaint implements the analyzer that keeps cost.Micros
// arithmetic saturating outside the cost package itself.
//
// DESIGN.md's overflow rule (§2) is that every sum, difference and
// product of cost.Micros values goes through cost.SatAdd, cost.SatSub and
// cost.SatMul, which clamp at cost.Max/cost.Min instead of wrapping: a
// completion time that does not fit the representation must compare as
// "later than everything", never as a small wrapped value that fabricates
// capacity in floor((t-D-X)/C). The analyzer reports raw `+`, `-` and `*`
// (and the compound `+=`, `-=`, `*=` and `++`/`--` forms) in two shapes:
//
//   - a cost.Micros operand or location — the type alone says the value
//     is a time;
//   - a value laundered out of cost.Micros — `int64(m) + x` or
//     `time.Duration(m) * 1000` converts the Micros into a plain
//     int64-underlying type whose arithmetic wraps silently. Any such
//     conversion is a taint source for the dataflow engine, and the taint
//     propagates through assignments, struct fields, containers, and
//     intra-package calls and returns. Cross-package flows are not
//     tracked (the engine's documented caveat), so a Micros laundered
//     through an exported helper's int64 result in another package is
//     invisible — keep such helpers returning Micros.
//
// Division, shifts and comparisons are exempt: they cannot overflow
// int64 (the lone exception, Min / -1, cannot arise because validated
// times are non-negative). Constant expressions are exempt: the compiler
// already rejects overflowing constant arithmetic at build time. The cost
// package itself is exempt — it is where the saturating helpers are
// implemented, and its wrap-checks are the point.
//
// Sites where wrap is provably impossible (e.g. a difference of two
// values already clamped to the same range) opt out per line with a
// reasoned `//lint:ignore sattaint <why>` suppression.
package sattaint

import (
	"go/ast"
	"go/token"
	"go/types"

	"imflow/internal/analysis"
	"imflow/internal/analysis/dataflow"
)

// costPath is the one package allowed to do raw Micros arithmetic.
const costPath = "imflow/internal/cost"

// helper maps a flagged operator to the saturating replacement.
var helper = map[token.Token]string{
	token.ADD:        "cost.SatAdd",
	token.SUB:        "cost.SatSub",
	token.MUL:        "cost.SatMul",
	token.ADD_ASSIGN: "cost.SatAdd",
	token.SUB_ASSIGN: "cost.SatSub",
	token.MUL_ASSIGN: "cost.SatMul",
	token.INC:        "cost.SatAdd",
	token.DEC:        "cost.SatSub",
}

// Analyzer is the sattaint analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "sattaint",
	Doc:  "raw +/-/* on cost.Micros, or on an int64 laundered out of it, wraps on overflow; use cost.SatAdd/SatSub/SatMul",
	Run:  run,
}

// Config is the taint configuration sattaint runs the dataflow engine
// with: sources are conversions of Micros values to int64-underlying
// non-Micros types, and any such type carries.
func Config() dataflow.Config {
	return dataflow.Config{
		Source: isLaunderingConversion,
		Carries: func(t types.Type) bool {
			return isInt64Underlying(t) && !isMicros(t)
		},
	}
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == costPath {
		return nil
	}
	taint := dataflow.Run(&analysis.Package{
		ImportPath: pass.Pkg.Path(),
		Fset:       pass.Fset,
		Files:      pass.Files,
		Types:      pass.Pkg,
		Info:       pass.Info,
	}, Config())
	report := func(pos token.Pos, op token.Token, micros bool) {
		if micros {
			pass.Reportf(pos, "raw %s on cost.Micros can wrap; use %s", op, helper[op])
		} else {
			pass.Reportf(pos, "raw %s on a cost.Micros-derived value can wrap; do the arithmetic in cost.Micros with %s", op, helper[op])
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if _, flagged := helper[n.Op]; !flagged {
					return true
				}
				if tv, ok := pass.Info.Types[n]; ok && tv.Value != nil {
					return true // constant-folded: the compiler checks overflow
				}
				if isMicros(pass.TypeOf(n.X)) || isMicros(pass.TypeOf(n.Y)) {
					report(n.OpPos, n.Op, true)
				} else if taint.Tainted(n.X) || taint.Tainted(n.Y) {
					report(n.OpPos, n.Op, false)
				}
			case *ast.AssignStmt:
				if _, flagged := helper[n.Tok]; !flagged || len(n.Lhs) != 1 || len(n.Rhs) != 1 {
					return true
				}
				if isMicros(pass.TypeOf(n.Lhs[0])) {
					report(n.TokPos, n.Tok, true)
				} else if taint.LValueTainted(n.Lhs[0]) || taint.Tainted(n.Rhs[0]) {
					report(n.TokPos, n.Tok, false)
				}
			case *ast.IncDecStmt:
				if isMicros(pass.TypeOf(n.X)) {
					report(n.TokPos, n.Tok, true)
				} else if taint.LValueTainted(n.X) {
					report(n.TokPos, n.Tok, false)
				}
			}
			return true
		})
	}
	return nil
}

// isLaunderingConversion reports whether e converts a cost.Micros value
// into a non-Micros int64-underlying type — the taint source.
func isLaunderingConversion(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	if !isInt64Underlying(tv.Type) || isMicros(tv.Type) {
		return false
	}
	argT, ok := info.Types[call.Args[0]]
	return ok && isMicros(argT.Type)
}

func isInt64Underlying(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int64
}

// isMicros reports whether t is (an alias of) cost.Micros.
func isMicros(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Micros" && obj.Pkg() != nil && obj.Pkg().Path() == costPath
}
