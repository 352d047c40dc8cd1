// Package directive implements the analyzer that keeps the annotation
// language itself honest. noalloc and lockguard are armed or disarmed by
// //imflow:<verb> comments, which makes a typo'd directive the worst kind
// of bug: the code compiles, the lint run passes, and the invariant the
// author believed they declared is simply not enforced. This analyzer
// reports:
//
//   - an unknown verb (//imflow:noaloc) — the directive arms nothing;
//   - the inert near-miss "// imflow:..." — a space after the slashes
//     makes the comment invisible to exact-prefix directive matching;
//   - a malformed //imflow:locked — missing, empty, or unclosed
//     parentheses, or trailing text after a no-argument directive
//     (directives are matched as whole comment lines, so trailing text
//     disarms them);
//   - a directive (noalloc, allocok, locked) that is not attached to a
//     function declaration's doc comment;
//   - //imflow:locked(<guard>) naming a guard that is not a field of the
//     method's receiver struct — a dangling claim lockguard would
//     silently accept as "some other lock".
//
// Dangling "guarded by <field>" field annotations are lockguard's own
// business (it resolves them anyway); this analyzer owns the directive
// grammar.
package directive

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"imflow/internal/analysis"
)

// Analyzer is the directive hygiene analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "directive",
	Doc:  "//imflow: directives must use known verbs, well-formed arguments, and sit where their analyzer looks for them",
	Run:  run,
}

const prefix = "//imflow:"

// verbs maps each known directive verb to whether it takes a
// parenthesized argument (locked(mu)); the others stand alone. Their
// analyzers read only function doc comments.
var verbs = map[string]bool{
	"noalloc": false,
	"allocok": false,
	"locked":  true,
}

var lockedForm = regexp.MustCompile(`^locked\(([A-Za-z_]\w*)\)$`)

const knownList = "allocok, locked(<field>), noalloc"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		// Attribute doc comments to their function declarations so
		// placement can be checked.
		owner := map[*ast.Comment]*ast.FuncDecl{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				owner[c] = fd
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				checkComment(pass, c, owner[c])
			}
		}
	}
	return nil
}

func checkComment(pass *analysis.Pass, c *ast.Comment, fd *ast.FuncDecl) {
	if strings.HasPrefix(c.Text, "// imflow:") {
		pass.Reportf(c.Pos(), "inert directive: %q has a space after the slashes, so no analyzer matches it", strings.TrimSpace(c.Text))
		return
	}
	rest, ok := strings.CutPrefix(c.Text, prefix)
	if !ok {
		return
	}
	verb := rest
	if i := strings.IndexAny(rest, "( \t"); i >= 0 {
		verb = rest[:i]
	}
	paren, known := verbs[verb]
	if !known {
		pass.Reportf(c.Pos(), "unknown directive %s%s (known verbs: %s)", prefix, verb, knownList)
		return
	}
	var guard string
	if paren {
		m := lockedForm.FindStringSubmatch(rest)
		if m == nil {
			pass.Reportf(c.Pos(), "malformed %s%s directive: expected %slocked(<field>)", prefix, rest, prefix)
			return
		}
		guard = m[1]
	} else if rest != verb {
		pass.Reportf(c.Pos(), "malformed %s%s directive: trailing %q disarms it (directives match as whole comment lines)", prefix, verb, strings.TrimPrefix(rest, verb))
		return
	}
	if fd == nil {
		pass.Reportf(c.Pos(), "%s%s must be in a function declaration's doc comment; here it arms nothing", prefix, verb)
		return
	}
	if paren {
		checkLockedGuard(pass, c, guard, fd)
	}
}

// checkLockedGuard verifies the named guard is a field of the method's
// receiver struct.
func checkLockedGuard(pass *analysis.Pass, c *ast.Comment, guard string, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		pass.Reportf(c.Pos(), "%slocked(%s) is on a function with no receiver; the guard has no struct to live in", prefix, guard)
		return
	}
	st := receiverStruct(pass, fd)
	if st == nil {
		return // exotic receiver; nothing to check against
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == guard {
			return
		}
	}
	pass.Reportf(c.Pos(), "%slocked(%s) references %q, which is not a field of the receiver struct", prefix, guard, guard)
}

func receiverStruct(pass *analysis.Pass, fd *ast.FuncDecl) *types.Struct {
	t := pass.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return nil
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}
