// Command imflow-bench-diff gates solver benchmark regressions: it
// compares a freshly generated BENCH_retrieval.json against the committed
// baseline and exits non-zero when a sequential engine got >25% slower or
// any sequential engine's steady-state allocs/op regressed. Entries
// present in only one of the two documents (new cells, narrower smoke
// sweeps) are printed as INFO lines and never fail the gate. The failover
// records are not gated.
//
// Usage:
//
//	imflow-bench-diff -old BENCH_retrieval.json -new fresh.json
//	imflow-bench-diff -allocs-only ...   # CI smoke: machine-independent gates only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"imflow/internal/bench"
)

func main() {
	oldRet := flag.String("old", "", "committed BENCH_retrieval.json baseline")
	newRet := flag.String("new", "", "freshly generated BENCH_retrieval.json")
	maxRatio := flag.Float64("max-ratio", 1.25, "tolerated timing regression ratio")
	allocsOnly := flag.Bool("allocs-only", false,
		"skip wall-clock gates (for CI, where the baseline's hardware differs)")
	flag.Parse()
	if *oldRet == "" || *newRet == "" {
		fatalf("pass both -old and -new")
	}

	var oldR, newR bench.RetrievalReport
	readJSON(*oldRet, &oldR)
	readJSON(*newRet, &newR)
	violations, infos := bench.DiffRetrieval(&oldR, &newR,
		bench.DiffOptions{MaxRatio: *maxRatio, TimingChecks: !*allocsOnly})

	// Entries present in only one document (new cells, narrower smoke
	// sweeps, renamed cells) are reported but never fail the gate.
	for _, i := range infos {
		fmt.Fprintf(os.Stderr, "INFO: %s\n", i)
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "imflow-bench-diff: retrieval report clean")
}

func readJSON(path string, into any) {
	blob, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := json.Unmarshal(blob, into); err != nil {
		fatalf("%s: %v", path, err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "imflow-bench-diff: "+format+"\n", args...)
	os.Exit(1)
}
