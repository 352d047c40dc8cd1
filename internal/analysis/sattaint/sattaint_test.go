package sattaint_test

import (
	"testing"

	"imflow/internal/analysis/analyzertest"
	"imflow/internal/analysis/sattaint"
)

// TestRawArithmetic proves every wrapping operator shape on cost.Micros —
// binary +, -, *, the compound assignments, and ++/-- — is reported with
// the matching Sat* helper named in the message.
func TestRawArithmetic(t *testing.T) {
	diags := analyzertest.Run(t, sattaint.Analyzer, "testdata/satbad")
	if len(diags) == 0 {
		t.Fatal("deliberate-violation fixture produced no diagnostics")
	}
}

// TestSanctionedShapes proves the analyzer stays silent on Sat* calls,
// division, comparisons, constant folding, and plain integer arithmetic.
func TestSanctionedShapes(t *testing.T) {
	analyzertest.Run(t, sattaint.Analyzer, "testdata/satok")
}

// TestSattaintFixture covers the laundered shapes: Micros converted to an
// int64-underlying type and tracked through locals, fields and returns.
func TestSattaintFixture(t *testing.T) {
	diags := analyzertest.Run(t, sattaint.Analyzer, "testdata/sattaint")
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics; the analyzer is disarmed")
	}
}
