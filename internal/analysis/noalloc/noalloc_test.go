package noalloc_test

import (
	"strings"
	"testing"

	"imflow/internal/analysis/analyzertest"
	"imflow/internal/analysis/callgraph"
	"imflow/internal/analysis/noalloc"
)

// TestAllocatingConstructs proves every allocating shape — make/new,
// escaping literals, closures, fmt calls, string concatenation,
// non-receiver append, and interface boxing at call, return, and
// conversion sites — is reported inside //imflow:noalloc functions.
func TestAllocatingConstructs(t *testing.T) {
	diags := analyzertest.Run(t, noalloc.Analyzer, "testdata/allocbad")
	if len(diags) == 0 {
		t.Fatal("deliberate-violation fixture produced no diagnostics")
	}
}

// TestSteadyStateShapes proves the admitted shapes stay silent:
// receiver-rooted append, in-place reslicing, value literals, constant
// concatenation, pointer-into-interface, nil returns, and unannotated
// functions.
func TestSteadyStateShapes(t *testing.T) {
	analyzertest.Run(t, noalloc.Analyzer, "testdata/allocok")
}

// TestTransitiveChains proves the module-level walk: an annotated root
// reaching an allocating function through direct calls, interface
// dispatch, or a recursion cycle is reported with the witness chain,
// while //imflow:allocok boundaries and //lint:ignore'd call sites cut
// the chain.
func TestTransitiveChains(t *testing.T) {
	diags := analyzertest.RunModule(t, []*callgraph.Analyzer{noalloc.Transitive}, "testdata/transitive")
	if len(diags) != 3 {
		t.Fatalf("transitive fixture produced %d diagnostics, want 3:\n%v", len(diags), diags)
	}
	// The witness chain must be printed in full for the two-hop case.
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "via transitive.entry → transitive.mid → transitive.alloc") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no diagnostic prints the full entry → mid → alloc witness chain:\n%v", diags)
	}
}

// TestTransitiveMessagesCarryNoPosition keeps transitive messages free of
// file positions: lint baseline records match on the message, so a path
// or line in it would tie a record to one checkout and stale it on any
// line drift. The callee's name already locates the allocation.
func TestTransitiveMessagesCarryNoPosition(t *testing.T) {
	diags := analyzertest.RunModule(t, []*callgraph.Analyzer{noalloc.Transitive}, "testdata/transitive")
	for _, d := range diags {
		if strings.Contains(d.Message, ".go") || strings.Contains(d.Message, "testdata") {
			t.Errorf("transitive message carries a file position: %s", d.Message)
		}
	}
}
