// Command imflow-bench runs the reproducible steady-state retrieval
// benchmark: paper-scale experiment cells solved by every max-flow engine
// through the integrated algorithms, with per-op wall time, allocation
// counts, and elementary work counters, plus in-place failover repair
// (MarkFailed: mask the disk, re-run the search from the flow the solver
// holds) timed against a fresh masked solve, written as
// BENCH_retrieval.json.
//
// Usage:
//
//	imflow-bench                        # paper-scale grid, writes BENCH_retrieval.json
//	imflow-bench -smoke                 # one tiny cell (CI benchmark smoke)
//	imflow-bench -n 20,60 -queries 10   # custom sweep
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"imflow/internal/bench"
)

func main() {
	smoke := flag.Bool("smoke", false, "run the small CI smoke configuration")
	out := flag.String("out", "BENCH_retrieval.json", "output JSON path (- for stdout)")
	ns := flag.String("n", "", "comma-separated grid sizes (default 20,60,100)")
	queries := flag.Int("queries", 0, "problems per cell (default 20)")
	repeats := flag.Int("repeats", 0, "measured passes per solver (default 2)")
	seed := flag.Uint64("seed", 0, "workload seed (default 42)")
	threads := flag.Int("threads", 0, "workers for the parallel engine (default 2)")
	expNum := flag.Int("exp", 0, "Table IV experiment number (default 2)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measured suite to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile (after the suite) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("%v", err)
		}
		//lint:ignore erruse best-effort diagnostic profile; a close error cannot affect the benchmark result
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	var o bench.RetrievalOptions
	if *smoke {
		o = bench.SmokeRetrievalOptions()
	}
	if *ns != "" {
		o.Ns = o.Ns[:0]
		for _, f := range strings.Split(*ns, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v <= 0 {
				fatalf("bad -n element %q", f)
			}
			o.Ns = append(o.Ns, v)
		}
	}
	if *queries > 0 {
		o.Queries = *queries
	}
	if *repeats > 0 {
		o.Repeats = *repeats
	}
	if *seed != 0 {
		o.Seed = *seed
	}
	if *threads > 0 {
		o.Threads = *threads
	}
	if *expNum > 0 {
		o.ExpNum = *expNum
	}

	report, err := bench.RunRetrieval(o)
	if err != nil {
		fatalf("%v", err)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatalf("%v", err)
		}
		runtime.GC() // flush the final allocations into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatalf("memprofile: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("memprofile: %v", err)
		}
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		if _, err := os.Stdout.Write(blob); err != nil {
			fatalf("%v", err)
		}
	} else {
		if dir := filepath.Dir(*out); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatalf("%v", err)
			}
		}
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d records)\n", *out, len(report.Records))
	}

	// Terminal summary: one line per record, engines side by side.
	for _, r := range report.Records {
		fmt.Fprintf(os.Stderr, "%-28s %-22s %10.0f ns/op %8.1f allocs/op %6.1f runs/op %8.1f incr/op %10.0f warm ns/op %5.2fx warm\n",
			r.Cell, r.Solver, r.NsPerOp, r.AllocsPerOp, r.MaxflowRuns, r.Increments, r.WarmNsPerOp, r.WarmSpeedup)
	}
	for _, r := range report.Failover {
		fmt.Fprintf(os.Stderr, "%-28s failover %d failed     %10.0f ns/op repair %10.0f ns/op fresh %5.2fx repair/fresh\n",
			r.Cell, r.FailedDisks, r.RepairNsPerOp, r.FreshNsPerOp, r.RepairFreshRatio)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "imflow-bench: "+format+"\n", args...)
	os.Exit(1)
}
