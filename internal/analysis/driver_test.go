package analysis_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"sort"
	"testing"

	"imflow/internal/analysis"
	"imflow/internal/analysis/roster"
	"imflow/internal/analysis/sattaint"
)

// suppressFixture runs sattaint over testdata/suppress and returns the
// FilterSuppressed split the driver would see.
func suppressFixture(t *testing.T) (active []analysis.Diagnostic, suppressed []analysis.Suppressed) {
	t.Helper()
	pkg, err := analysis.LoadDir("testdata/suppress")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	pkgs := []*analysis.Package{pkg}
	diags, err := analysis.Run([]*analysis.Analyzer{sattaint.Analyzer}, pkgs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return analysis.FilterSuppressed(pkgs, diags, roster.Names())
}

// TestSuppressionForms pins the suppression grammar: the standalone and
// end-of-line forms silence their finding, a reasonless //lint:ignore
// silences nothing and surfaces as a malformed-suppression finding, and
// unsuppressed findings stay active.
func TestSuppressionForms(t *testing.T) {
	active, suppressed := suppressFixture(t)

	if len(suppressed) != 2 {
		t.Fatalf("suppressed = %d findings, want 2 (standalone + end-of-line):\n%v", len(suppressed), suppressed)
	}
	for _, s := range suppressed {
		if s.Reason == "" {
			t.Errorf("suppressed finding at %s carries no reason", s.Pos)
		}
	}

	// Active: naked's +, reasonless's * (the reasonless comment must not
	// silence it), typod's + (an unknown analyzer name silences nothing),
	// and the two malformed-suppression findings themselves.
	if len(active) != 5 {
		t.Fatalf("active = %d findings, want 5:\n%v", len(active), active)
	}
	byAnalyzer := map[string]int{}
	for _, d := range active {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer["sattaint"] != 3 || byAnalyzer["suppress"] != 2 {
		t.Fatalf("active analyzer counts = %v, want map[sattaint:3 suppress:2]", byAnalyzer)
	}
}

// TestJSONOutputStable proves the -json encoding is deterministic: two
// renders of the same findings are byte-identical, records are totally
// ordered, paths are root-relative, and suppressed records carry their
// reason.
func TestJSONOutputStable(t *testing.T) {
	active, suppressed := suppressFixture(t)

	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	recs := analysis.Records(root, active, suppressed)

	var first, second bytes.Buffer
	if err := analysis.WriteJSON(&first, recs); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := analysis.WriteJSON(&second, analysis.Records(root, active, suppressed)); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two renders of the same findings differ:\n%s\n---\n%s", first.String(), second.String())
	}

	var decoded []analysis.Record
	if err := json.Unmarshal(first.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(decoded) != len(active)+len(suppressed) {
		t.Fatalf("decoded %d records, want %d", len(decoded), len(active)+len(suppressed))
	}
	if !sort.SliceIsSorted(decoded, func(i, j int) bool {
		a, b := decoded[i], decoded[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	}) {
		t.Fatalf("records are not sorted by file/line/col:\n%s", first.String())
	}
	for _, r := range decoded {
		if filepath.IsAbs(r.File) {
			t.Errorf("record file %q is absolute; want root-relative", r.File)
		}
		if r.Suppressed && r.Reason == "" {
			t.Errorf("suppressed record at %s:%d has no reason", r.File, r.Line)
		}
		if !r.Suppressed && r.Reason != "" {
			t.Errorf("active record at %s:%d carries a reason %q", r.File, r.Line, r.Reason)
		}
	}
}

// TestRepoIsClean: the per-package roster over the whole module must
// produce no active findings.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load is slow; skipped in -short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := analysis.Run(roster.Packages, pkgs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	active, _ := analysis.FilterSuppressed(pkgs, diags, roster.Names())
	for _, d := range active {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestRepoMatchesBaseline mirrors the CI regression gate: the full
// roster — per-package and module-level — over the whole module must
// produce exactly the records of the committed lint_baseline.json,
// suppressed ones included: a new finding fails, and so does a stale
// baseline record no current finding matches (refresh with
// `make lint-accept`).
func TestRepoMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load is slow; skipped in -short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := roster.Run(pkgs, nil)
	if err != nil {
		t.Fatalf("roster.Run: %v", err)
	}
	active, suppressed := analysis.FilterSuppressed(pkgs, diags, roster.Names())
	records := analysis.Records(root, active, suppressed)
	baseline, err := analysis.ReadBaseline(filepath.Join(root, "lint_baseline.json"))
	if err != nil {
		t.Fatalf("ReadBaseline: %v", err)
	}
	newFindings, stale := analysis.DiffBaseline(records, baseline)
	for _, r := range newFindings {
		t.Errorf("new since baseline: %s:%d:%d: %s: %s", r.File, r.Line, r.Col, r.Analyzer, r.Message)
	}
	for _, r := range stale {
		t.Errorf("stale baseline record (refresh with `make lint-accept`): %s: %s: %s", r.File, r.Analyzer, r.Message)
	}
}
