package analysis

import (
	"encoding/json"
	"fmt"
	"os"
)

// Baseline support: the regression gate that lets the lint roster grow
// without demanding a same-day cleanup of every pre-existing finding.
// A baseline is simply a committed -json record stream (lint_baseline.json
// at the repository root); `imflow-lint -baseline <file>` diffs the
// current findings against it and fails on any difference: a *new*
// finding, or a *stale* baseline record that no current finding matches.
// A stale record is refreshed away with `imflow-lint -accept`
// (`make lint-accept`), so the committed file always lists exactly what
// the code produces.
//
// Findings are matched by (file, analyzer, message, suppressed) as a
// multiset — line and column are deliberately ignored so that unrelated
// edits that shift a finding a few lines do not read as one fixed and one
// new. Suppressed records take part like active ones: a suppression is a
// reviewed claim the baseline records, so adding, removing or
// unsuppressing one changes the diff. The suppression's reason is not
// part of the key.

// ReadBaseline loads a baseline file written by WriteJSON.
func ReadBaseline(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// baselineKey is the identity findings are matched under across runs.
type baselineKey struct {
	File       string
	Analyzer   string
	Message    string
	Suppressed bool
}

func keyOf(r Record) baselineKey {
	return baselineKey{File: r.File, Analyzer: r.Analyzer, Message: r.Message, Suppressed: r.Suppressed}
}

// DiffBaseline compares the current records against the baseline and
// returns the findings that are new (present now, absent then) and stale
// (present then, absent now). Either kind fails the gate. Suppressed
// records are matched like active ones. Multiplicity counts: two
// identical findings now against one in the baseline yields one new
// finding.
func DiffBaseline(current, baseline []Record) (newFindings, stale []Record) {
	counts := map[baselineKey]int{}
	for _, r := range baseline {
		counts[keyOf(r)]++
	}
	for _, r := range current {
		k := keyOf(r)
		if counts[k] > 0 {
			counts[k]--
			continue
		}
		newFindings = append(newFindings, r)
	}
	// Whatever multiplicity is left in the baseline was not matched by a
	// current finding: stale.
	for _, r := range baseline {
		k := keyOf(r)
		if counts[k] > 0 {
			counts[k]--
			stale = append(stale, r)
		}
	}
	sortRecords(newFindings)
	sortRecords(stale)
	return newFindings, stale
}
