package directive_test

import (
	"testing"

	"imflow/internal/analysis/analyzertest"
	"imflow/internal/analysis/directive"
)

// TestBrokenDirectives proves every grammar violation is reported: an
// unknown verb, the inert "// imflow:" near-miss, a malformed locked
// form, trailing text after a verb, locked on a free function, a
// dangling locked guard, and a directive off a function declaration.
func TestBrokenDirectives(t *testing.T) {
	diags := analyzertest.Run(t, directive.Analyzer, "testdata/dirbad")
	if len(diags) != 7 {
		t.Fatalf("dirbad fixture produced %d diagnostics, want 7:\n%v", len(diags), diags)
	}
}

// TestWellFormedDirectives proves every known verb in its proper place
// stays silent.
func TestWellFormedDirectives(t *testing.T) {
	analyzertest.Run(t, directive.Analyzer, "testdata/dirok")
}
