package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"imflow/internal/analysis"
)

func rec(file, analyzer, message string, line int) analysis.Record {
	return analysis.Record{File: file, Line: line, Col: 1, Analyzer: analyzer, Message: message}
}

// TestDiffBaseline pins the gate semantics: unchanged findings pass,
// new findings fail, absent findings report as stale, matching ignores
// line numbers, respects multiplicity, and matches suppressed records
// like active ones.
func TestDiffBaseline(t *testing.T) {
	baseline := []analysis.Record{
		rec("a.go", "noalloc", "make allocates", 10),
		rec("a.go", "noalloc", "make allocates", 20), // same key twice: multiset
		rec("b.go", "lockguard", "unguarded read", 5),
		{File: "c.go", Line: 1, Col: 1, Analyzer: "ctxleak", Message: "quiet", Suppressed: true, Reason: "reviewed"},
	}
	current := []analysis.Record{
		rec("a.go", "noalloc", "make allocates", 99), // line drift: still matches
		rec("a.go", "noalloc", "make allocates", 100),
		rec("d.go", "ctxleak", "blocking send", 7), // new
		{File: "c.go", Line: 1, Col: 1, Analyzer: "ctxleak", Message: "quiet", Suppressed: true, Reason: "reviewed"},
	}
	newFindings, fixed := analysis.DiffBaseline(current, baseline)
	if len(newFindings) != 1 || newFindings[0].File != "d.go" {
		t.Fatalf("newFindings = %v, want the single d.go finding", newFindings)
	}
	if len(fixed) != 1 || fixed[0].File != "b.go" {
		t.Fatalf("fixed = %v, want the single b.go finding", fixed)
	}
}

// TestDiffBaselineMultiplicity: a second identical finding in the same
// file is new even though the first is baselined.
func TestDiffBaselineMultiplicity(t *testing.T) {
	baseline := []analysis.Record{rec("a.go", "noalloc", "make allocates", 10)}
	current := []analysis.Record{
		rec("a.go", "noalloc", "make allocates", 10),
		rec("a.go", "noalloc", "make allocates", 30),
	}
	newFindings, fixed := analysis.DiffBaseline(current, baseline)
	if len(newFindings) != 1 || len(fixed) != 0 {
		t.Fatalf("new = %v fixed = %v, want exactly one new and none fixed", newFindings, fixed)
	}
}

// TestDiffBaselineUnchanged: identical streams produce an empty diff.
func TestDiffBaselineUnchanged(t *testing.T) {
	recs := []analysis.Record{
		rec("a.go", "noalloc", "make allocates", 10),
		rec("b.go", "lockguard", "unguarded read", 5),
	}
	newFindings, fixed := analysis.DiffBaseline(recs, recs)
	if len(newFindings) != 0 || len(fixed) != 0 {
		t.Fatalf("new = %v fixed = %v, want empty diff", newFindings, fixed)
	}
}

// acceptInto mirrors the driver's -accept path: rewrite the baseline
// file with exactly the current record stream.
func acceptInto(t *testing.T, path string, current []analysis.Record) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := analysis.WriteJSON(f, current); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAcceptPrunesStaleEntries: -accept is a rewrite, not a merge — an
// entry whose finding was fixed does not linger in the refreshed
// baseline, so regressing it later fails the gate again.
func TestAcceptPrunesStaleEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	acceptInto(t, path, []analysis.Record{
		rec("a.go", "noalloc", "make allocates", 10),
		rec("b.go", "lockguard", "unguarded read", 5), // about to be fixed
	})
	current := []analysis.Record{rec("a.go", "noalloc", "make allocates", 10)}
	acceptInto(t, path, current)
	refreshed, err := analysis.ReadBaseline(path)
	if err != nil {
		t.Fatalf("ReadBaseline: %v", err)
	}
	if len(refreshed) != 1 || refreshed[0].File != "a.go" {
		t.Fatalf("refreshed baseline = %v, want only the surviving a.go entry", refreshed)
	}
	// The pruned finding coming back must read as new, not as baselined.
	regressed := append(current, rec("b.go", "lockguard", "unguarded read", 6))
	newFindings, _ := analysis.DiffBaseline(regressed, refreshed)
	if len(newFindings) != 1 || newFindings[0].File != "b.go" {
		t.Fatalf("newFindings = %v, want the regressed b.go finding", newFindings)
	}
}

// TestDiffBaselineDeletedFile: every entry for a file that no longer
// exists (so no current record mentions it) reports as stale, never as
// new, and an -accept rewrite drops them all.
func TestDiffBaselineDeletedFile(t *testing.T) {
	baseline := []analysis.Record{
		rec("gone.go", "noalloc", "make allocates", 3),
		rec("gone.go", "sattaint", "raw +", 9),
		rec("kept.go", "noalloc", "make allocates", 4),
	}
	current := []analysis.Record{rec("kept.go", "noalloc", "make allocates", 4)}
	newFindings, fixed := analysis.DiffBaseline(current, baseline)
	if len(newFindings) != 0 {
		t.Fatalf("newFindings = %v, want none for a deleted file", newFindings)
	}
	if len(fixed) != 2 || fixed[0].File != "gone.go" || fixed[1].File != "gone.go" {
		t.Fatalf("fixed = %v, want both gone.go entries", fixed)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	acceptInto(t, path, current)
	refreshed, err := analysis.ReadBaseline(path)
	if err != nil {
		t.Fatalf("ReadBaseline: %v", err)
	}
	for _, r := range refreshed {
		if r.File == "gone.go" {
			t.Errorf("deleted-file entry survived the -accept rewrite: %+v", r)
		}
	}
}

// TestDiffBaselineDuplicatePosition: two distinct findings at the same
// file/line/col (different analyzers, or one analyzer firing twice with
// different messages) are matched as distinct keys, not collapsed.
func TestDiffBaselineDuplicatePosition(t *testing.T) {
	baseline := []analysis.Record{
		rec("a.go", "noalloc", "make allocates", 10),
		rec("a.go", "sattaint", "raw + on a tainted value", 10),
	}
	// Both still present: clean diff in both directions.
	newFindings, fixed := analysis.DiffBaseline(baseline, baseline)
	if len(newFindings) != 0 || len(fixed) != 0 {
		t.Fatalf("same-position records did not self-match: new=%v fixed=%v", newFindings, fixed)
	}
	// Fixing only one of the co-located findings reports exactly it.
	current := []analysis.Record{rec("a.go", "noalloc", "make allocates", 10)}
	newFindings, fixed = analysis.DiffBaseline(current, baseline)
	if len(newFindings) != 0 || len(fixed) != 1 || fixed[0].Analyzer != "sattaint" {
		t.Fatalf("new=%v fixed=%v, want only the sattaint entry fixed", newFindings, fixed)
	}
	// And the round trip preserves both co-located records verbatim.
	path := filepath.Join(t.TempDir(), "baseline.json")
	acceptInto(t, path, baseline)
	refreshed, err := analysis.ReadBaseline(path)
	if err != nil {
		t.Fatalf("ReadBaseline: %v", err)
	}
	if len(refreshed) != 2 {
		t.Fatalf("round trip collapsed co-located records: %v", refreshed)
	}
}

// TestDiffBaselineStaleSuppressedRecord: suppressed records take part in
// the diff both ways. A suppression whose function was renamed leaves a
// stale baseline record and a new current one, and unsuppressing a
// finding reads as a new active record plus a stale suppressed one;
// either way the gate, which fails on any new or stale record, fails.
func TestDiffBaselineStaleSuppressedRecord(t *testing.T) {
	suppressed := func(message string) analysis.Record {
		r := rec("pr.go", "noalloc", message, 10)
		r.Suppressed, r.Reason = true, "cold failure exit"
		return r
	}
	baseline := []analysis.Record{
		rec("a.go", "noalloc", "make allocates", 3),
		suppressed("fmt.Errorf allocates in //imflow:noalloc function solveMasked"),
	}
	current := []analysis.Record{
		rec("a.go", "noalloc", "make allocates", 3),
		suppressed("fmt.Errorf allocates in //imflow:noalloc function search"),
	}
	newFindings, stale := analysis.DiffBaseline(current, baseline)
	if len(stale) != 1 || stale[0].Message != baseline[1].Message {
		t.Fatalf("stale = %v, want the solveMasked record", stale)
	}
	if len(newFindings) != 1 || newFindings[0].Message != current[1].Message {
		t.Fatalf("newFindings = %v, want the search record", newFindings)
	}

	// The same finding, no longer suppressed.
	active := rec("pr.go", "noalloc", baseline[1].Message, 10)
	newFindings, stale = analysis.DiffBaseline([]analysis.Record{baseline[0], active}, baseline)
	if len(newFindings) != 1 || newFindings[0].Suppressed {
		t.Fatalf("newFindings = %v, want the unsuppressed record", newFindings)
	}
	if len(stale) != 1 || !stale[0].Suppressed {
		t.Fatalf("stale = %v, want the suppressed baseline record", stale)
	}
}

// TestBaselineRoundTrip: a record stream written by WriteJSON reads back
// identically through ReadBaseline.
func TestBaselineRoundTrip(t *testing.T) {
	recs := []analysis.Record{
		rec("a.go", "noalloc", "make allocates", 10),
		{File: "c.go", Line: 1, Col: 2, Analyzer: "ctxleak", Message: "quiet", Suppressed: true, Reason: "reviewed"},
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := analysis.WriteJSON(f, recs); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := analysis.ReadBaseline(path)
	if err != nil {
		t.Fatalf("ReadBaseline: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}
