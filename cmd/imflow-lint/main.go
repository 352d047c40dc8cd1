// Command imflow-lint is the repository's multichecker: it runs the
// custom analyzers that guard the invariants everything else is built on
// — saturating cost.Micros arithmetic, including Micros values laundered
// into plain int64s (sattaint), the mutex guard annotations of the
// serving layer (lockguard), the zero-allocation hot paths (noalloc,
// both per-function and transitively over the call graph), dropped-error
// detection (erruse), directive hygiene (directive) and cancellation
// propagation to blocking channel operations (ctxleak). The roster is
// defined once, in internal/analysis/roster; DESIGN.md §7 records the
// seeded bug each analyzer catches that no test does.
//
// Usage:
//
//	go run ./cmd/imflow-lint [flags] [packages...]
//
// With no package patterns it lints ./.... Flags:
//
//	-list      print the roster and exit
//	-json      write the findings as a stably sorted JSON record array on
//	           stdout (the CI artifact) instead of the text form
//	-baseline  diff the findings against a committed record file
//	-accept    rewrite the -baseline file with the current findings
//	-v         print per-analyzer wall time to stderr
//
// -baseline <file> turns the run into a regression gate: findings,
// suppressed ones included, are diffed against the committed record
// stream (lint_baseline.json at the repository root), and the run fails
// on any difference, so the file never drifts from the code. A new
// finding fails it, and so does a baseline record no current finding
// matches (stale); refresh the baseline with -accept (see
// `make lint-accept`), which rewrites the file and always exits 0.
//
// Findings are silenced per line with
//
//	//lint:ignore <analyzer> <reason>
//
// on (or immediately above) the flagged line. The reason is mandatory,
// and the analyzer name must be in the roster; a reasonless or typo'd
// suppression is itself a finding. The exit status is non-zero only for
// findings (malformed suppressions included; new findings and stale
// baseline records in baseline mode) — valid suppressions do not fail
// the run, and -json reports them with "suppressed": true for
// auditability. `go vet ./...` is a separate gate (`make vet`).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"imflow/internal/analysis"
	"imflow/internal/analysis/roster"
)

func main() {
	list := flag.Bool("list", false, "print the analyzer set and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a stably sorted JSON record array on stdout")
	baselinePath := flag.String("baseline", "", "diff findings against this baseline file; new findings and stale baseline records fail the run")
	accept := flag.Bool("accept", false, "rewrite the -baseline file with the current findings and exit 0")
	verbose := flag.Bool("v", false, "print per-analyzer wall time to stderr")
	flag.Parse()
	if *list {
		for _, a := range roster.Packages {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		for _, a := range roster.Module {
			fmt.Printf("%-12s %s (module-level)\n", a.Name, a.Doc)
		}
		return
	}
	if *accept && *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "imflow-lint: -accept requires -baseline <file>")
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fail(err)
	}
	timings := map[string]time.Duration{}
	diags, err := roster.Run(pkgs, timings)
	if err != nil {
		fail(err)
	}
	if *verbose {
		names := make([]string, 0, len(timings))
		for name := range timings {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "imflow-lint: %-12s %v\n", name, timings[name].Round(time.Microsecond))
		}
	}
	active, suppressed := analysis.FilterSuppressed(pkgs, diags, roster.Names())
	root, _ := os.Getwd()
	records := analysis.Records(root, active, suppressed)

	if *accept {
		f, err := os.Create(*baselinePath)
		if err != nil {
			fail(err)
		}
		if err := analysis.WriteJSON(f, records); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "imflow-lint: wrote %d record(s) to %s\n", len(records), *baselinePath)
		return
	}

	if *jsonOut {
		if err := analysis.WriteJSON(os.Stdout, records); err != nil {
			fail(err)
		}
	}

	var failed bool
	if *baselinePath != "" {
		baseline, err := analysis.ReadBaseline(*baselinePath)
		if err != nil {
			fail(err)
		}
		newFindings, stale := analysis.DiffBaseline(records, baseline)
		for _, r := range newFindings {
			fmt.Fprintf(os.Stderr, "%s:%d:%d: %s: %s (new since baseline)\n", r.File, r.Line, r.Col, r.Analyzer, r.Message)
		}
		for _, r := range stale {
			fmt.Fprintf(os.Stderr, "%s:%d:%d: %s: %s (stale baseline record: no current finding matches it)\n", r.File, r.Line, r.Col, r.Analyzer, r.Message)
		}
		if len(stale) > 0 {
			fmt.Fprintf(os.Stderr, "imflow-lint: %d stale baseline record(s) — refresh with `make lint-accept`\n", len(stale))
		}
		failed = len(newFindings) > 0 || len(stale) > 0
	} else {
		if !*jsonOut {
			for _, d := range active {
				fmt.Println(d)
			}
			if len(suppressed) > 0 {
				fmt.Fprintf(os.Stderr, "imflow-lint: %d finding(s) suppressed by %s comments\n", len(suppressed), analysis.SuppressPrefix)
			}
		}
		failed = len(active) > 0
	}
	if failed {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "imflow-lint:", err)
	os.Exit(2)
}
