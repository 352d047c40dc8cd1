// Command imflow-lint is the repository's multichecker: it runs the
// custom analyzers that guard the invariants everything else is built on
// — the float-free integer-microsecond core (microsfloat), saturating
// Micros arithmetic (satarith, plus its flow-sensitive upgrade sattaint
// for Micros-derived int64s), the sync/atomic access discipline of the
// lock-free parallel solver (atomicfield), the mutex guard annotations of
// the serving layer (lockguard), the zero-allocation hot paths (noalloc,
// both per-function and transitively over the call graph), dropped-error
// detection (erruse), directive hygiene (directive), the interprocedural
// concurrency checks built on the module call graph (lockorder, ctxleak),
// and the determinism-reachability walk that statically guards the
// bit-identity paths (detpath) — plus a curated `go vet` set.
//
// Usage:
//
//	go run ./cmd/imflow-lint [flags] [packages...]
//
// With no package patterns it lints ./.... Each analyzer has an
// enable/disable flag of the same name (-satarith=false skips satarith;
// -noalloc controls both the per-function and the transitive pass).
// Per-package analysis is sharded across GOMAXPROCS workers; diagnostics
// are re-sorted into a total order, so the output is identical to a
// serial run. -v prints per-analyzer wall time to stderr.
// -json writes the findings as a stably sorted JSON record array on
// stdout — the CI artifact and editor-integration format — instead of
// the human text form.
//
// -baseline <file> turns the run into a regression gate: findings,
// suppressed ones included, are diffed against the committed record
// stream (lint_baseline.json at the repository root), and the run fails
// on any difference, so the roster can grow without demanding a same-day
// cleanup of the backlog while the file never drifts from the code. A
// new finding fails it, and so does a baseline record no current finding
// matches (stale); refresh the baseline with -accept (see
// `make lint-accept`), which rewrites the baseline file with the current
// findings and always exits 0.
//
// Findings are silenced per line with
//
//	//lint:ignore <analyzer> <reason>
//
// on (or immediately above) the flagged line. The reason is mandatory,
// and the analyzer name must be in the roster; a reasonless or typo'd
// suppression is itself a finding. The exit status is non-zero only for
// findings (malformed suppressions included; new findings and stale
// baseline records in baseline mode) or a failed vet pass — valid suppressions do not fail
// the run, and -json reports them with "suppressed": true for
// auditability.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"time"

	"imflow/internal/analysis"
	"imflow/internal/analysis/atomicfield"
	"imflow/internal/analysis/callgraph"
	"imflow/internal/analysis/ctxleak"
	"imflow/internal/analysis/detpath"
	"imflow/internal/analysis/directive"
	"imflow/internal/analysis/erruse"
	"imflow/internal/analysis/lockguard"
	"imflow/internal/analysis/lockorder"
	"imflow/internal/analysis/microsfloat"
	"imflow/internal/analysis/noalloc"
	"imflow/internal/analysis/satarith"
	"imflow/internal/analysis/sattaint"
)

// roster is the per-package analyzer set, in documentation order.
var roster = []*analysis.Analyzer{
	microsfloat.Analyzer,
	satarith.Analyzer,
	sattaint.Analyzer,
	atomicfield.Analyzer,
	lockguard.Analyzer,
	noalloc.Analyzer,
	erruse.Analyzer,
	directive.Analyzer,
}

// moduleRoster is the interprocedural set, run once over the call graph
// of everything loaded rather than package by package. noalloc.Transitive
// shares the "noalloc" name (and flag, and suppression grammar) with its
// per-package half.
var moduleRoster = []*callgraph.Analyzer{
	noalloc.Transitive,
	detpath.Analyzer,
	lockorder.Analyzer,
	ctxleak.Analyzer,
}

// vetAnalyzers is the curated go vet set run alongside the custom
// analyzers: the standard checks most relevant to a lock-free,
// integer-exact codebase.
var vetAnalyzers = []string{
	"atomic",      // non-atomic update of a sync/atomic value
	"bools",       // suspect boolean operations
	"copylocks",   // locks copied by value (sync.RWMutex in parallel.Solver)
	"loopclosure", // goroutine capture of loop variables
	"lostcancel",  // context cancel leaks
	"nilfunc",     // comparisons of functions to nil
	"printf",      // format-string mistakes in diagnostics
	"stdmethods",  // misdeclared well-known interface methods
	"unreachable", // dead code
	"unsafeptr",   // invalid unsafe.Pointer conversions
}

// knownNames is the set of analyzer names a //lint:ignore comment may
// legitimately reference; "suppress" covers findings about suppressions
// themselves.
func knownNames() map[string]bool {
	known := map[string]bool{"suppress": true}
	for _, a := range roster {
		known[a.Name] = true
	}
	for _, a := range moduleRoster {
		known[a.Name] = true
	}
	return known
}

func main() {
	novet := flag.Bool("novet", false, "skip the curated go vet pass")
	list := flag.Bool("list", false, "print the analyzer set and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a stably sorted JSON record array on stdout")
	baselinePath := flag.String("baseline", "", "diff findings against this baseline file; new findings and stale baseline records fail the run")
	verbose := flag.Bool("v", false, "print per-analyzer wall time to stderr")
	accept := flag.Bool("accept", false, "rewrite the -baseline file with the current findings and exit 0")
	enabled := map[string]*bool{}
	for _, a := range roster {
		enabled[a.Name] = flag.Bool(a.Name, true, "run the "+a.Name+" analyzer")
	}
	for _, a := range moduleRoster {
		if _, dup := enabled[a.Name]; !dup {
			enabled[a.Name] = flag.Bool(a.Name, true, "run the "+a.Name+" analyzer")
		}
	}
	flag.Parse()
	if *list {
		for _, a := range roster {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		for _, a := range moduleRoster {
			fmt.Printf("%-12s %s (module-level)\n", a.Name, a.Doc)
		}
		for _, name := range vetAnalyzers {
			fmt.Printf("%-12s (go vet)\n", name)
		}
		return
	}
	if *accept && *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "imflow-lint: -accept requires -baseline <file>")
		os.Exit(2)
	}
	var analyzers []*analysis.Analyzer
	for _, a := range roster {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}
	var moduleAnalyzers []*callgraph.Analyzer
	for _, a := range moduleRoster {
		if *enabled[a.Name] {
			moduleAnalyzers = append(moduleAnalyzers, a)
		}
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fail(err)
	}
	diags, timings, err := analysis.RunParallel(analyzers, pkgs, runtime.GOMAXPROCS(0))
	if err != nil {
		fail(err)
	}
	if len(moduleAnalyzers) > 0 {
		graphStart := time.Now()
		graph, err := callgraph.Build(pkgs)
		if err != nil {
			fail(err)
		}
		timings["callgraph"] = time.Since(graphStart)
		// The module tier shares the graph, so it runs serially — but each
		// analyzer is timed on its own for the -v report. Names shared with
		// a per-package half (noalloc) accumulate into one entry.
		for _, a := range moduleAnalyzers {
			start := time.Now()
			moduleDiags, err := callgraph.Run([]*callgraph.Analyzer{a}, graph)
			if err != nil {
				fail(err)
			}
			timings[a.Name] += time.Since(start)
			diags = append(diags, moduleDiags...)
		}
		analysis.SortDiagnostics(diags)
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
	active, suppressed := analysis.FilterSuppressed(pkgs, diags, knownNames())
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
	if !*novet {
		args := []string{"vet"}
		for _, name := range vetAnalyzers {
			args = append(args, "-"+name)
		}
		args = append(args, patterns...)
		cmd := exec.Command("go", args...)
		cmd.Stdout = os.Stderr // keep stdout pure for -json consumers
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "imflow-lint:", err)
	os.Exit(2)
}
