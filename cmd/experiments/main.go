// Command experiments lists and runs the Table IV experiment
// configurations: for a chosen experiment, allocation, query type, load
// and N it times every solver on the same query batch and prints a
// comparison table, with per-solver work counters.
//
// Usage:
//
//	experiments -list
//	experiments -exp 5 -alloc orthogonal -type arbitrary -load 1 -n 30 -queries 200
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"imflow/internal/bench"
	"imflow/internal/cliutil"
	"imflow/internal/experiment"
	"imflow/internal/retrieval"
	"imflow/internal/stats"
	"imflow/internal/storage"
	"imflow/internal/trace"
)

func main() {
	list := flag.Bool("list", false, "print Table IV and exit")
	expNum := flag.Int("exp", 5, "experiment number (1-5)")
	allocName := flag.String("alloc", "orthogonal", "allocation: rda, dependent, orthogonal")
	typeName := flag.String("type", "arbitrary", "query type: range, arbitrary")
	loadNum := flag.Int("load", 1, "query load (1-3)")
	n := flag.Int("n", 20, "disks per site (grid is N x N)")
	queries := flag.Int("queries", 100, "number of queries")
	seed := flag.Uint64("seed", 1, "workload seed")
	threads := flag.Int("threads", 2, "threads for the parallel solver")
	dump := flag.String("dump", "", "archive the generated workload (system + queries) to this JSON trace file")
	replay := flag.String("replay", "", "time solvers on an archived trace instead of generating a workload")
	flag.Parse()

	if *list {
		printTableIV()
		return
	}

	var problems []*retrieval.Problem
	if *replay != "" {
		tr, err := trace.LoadFile(*replay)
		if err != nil {
			fatalf("%v", err)
		}
		problems, err = tr.Retrieve()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("replaying trace %s: exp %d, %s, %s, %s, N=%d, %d queries\n\n",
			*replay, tr.Meta.Experiment, tr.Meta.Allocation, tr.Meta.QueryType,
			tr.Meta.Load, tr.Meta.N, len(problems))
	} else {
		alloc, err := cliutil.ParseAlloc(*allocName)
		if err != nil {
			fatalf("%v", err)
		}
		typ, err := cliutil.ParseType(*typeName)
		if err != nil {
			fatalf("%v", err)
		}
		load, err := cliutil.ParseLoad(*loadNum)
		if err != nil {
			fatalf("%v", err)
		}
		cfg := experiment.Config{
			ExpNum:  *expNum,
			Alloc:   alloc,
			Type:    typ,
			Load:    load,
			N:       *n,
			Queries: *queries,
			Seed:    *seed,
		}
		inst, err := cfg.Build()
		if err != nil {
			fatalf("%v", err)
		}
		if *dump != "" {
			if err := trace.FromInstance(inst).SaveFile(*dump); err != nil {
				fatalf("%v", err)
			}
			fmt.Fprintf(os.Stderr, "archived workload to %s\n", *dump)
		}
		problems = inst.Problems
		fmt.Printf("cell %s: %d queries, %d disks across %d sites\n\n",
			cfg, len(inst.Problems), inst.System.NumDisks(), inst.System.Sites)
	}

	solvers := []retrieval.Solver{
		retrieval.NewFFIncremental(),
		retrieval.NewPRIncremental(),
		retrieval.NewPRBinaryBlackBox(),
		retrieval.NewPRBinaryBisect(),
		retrieval.NewPRBinaryParallel(*threads),
	}
	type row struct {
		name  string
		avgMs float64
		resp  stats.Summary
	}
	var rows []row
	var baseline []float64
	for _, s := range solvers {
		m, err := bench.MeasureSolver(s, problems)
		if err != nil {
			fatalf("%s: %v", s.Name(), err)
		}
		resp := make([]float64, len(m.Responses))
		for i, r := range m.Responses {
			resp[i] = r.Millis()
		}
		if baseline == nil {
			baseline = resp
		} else {
			for i := range resp {
				if resp[i] != baseline[i] {
					fatalf("%s disagrees with %s on query %d (%.3f vs %.3f ms)",
						s.Name(), solvers[0].Name(), i, resp[i], baseline[i])
				}
			}
		}
		rows = append(rows, row{s.Name(), m.AvgMs(), stats.Summarize(resp)})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].avgMs < rows[j].avgMs })

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "solver\tavg decision ms/query\tvs fastest")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.4f\t%.2fx\n", r.name, r.avgMs, r.avgMs/rows[0].avgMs)
	}
	if err := w.Flush(); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("\noptimal response times (ms, identical for all solvers): %s\n", rows[0].resp)
}

func printTableIV() {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "exp\tsites\tsite\tdisks\tdelays\tloads")
	for _, e := range storage.Experiments {
		for si, s := range e.Sites {
			if si == 0 {
				fmt.Fprintf(w, "%d\t%d", e.Num, len(e.Sites))
			} else {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprintf(w, "\t%d\t%s\t%s\t%s\n", si+1, s.Group, s.Delay, s.Load)
		}
	}
	if err := w.Flush(); err != nil {
		fatalf("%v", err)
	}
	fmt.Println("\ndisk catalog (Table III):")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "producer\tmodel\ttype\trpm\taccess")
	for _, d := range storage.Catalog {
		rpm := "-"
		if d.RPM > 0 {
			rpm = fmt.Sprintf("%d", d.RPM)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", d.Producer, d.Model, d.Type, rpm, d.Access)
	}
	if err := w.Flush(); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
