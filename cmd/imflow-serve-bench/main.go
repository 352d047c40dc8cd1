// Command imflow-serve-bench runs the serving-layer throughput benchmark:
// per paper-scale cell, a sequential replay baseline, a bit-exactness
// cross-check of the server's deterministic single-shard mode, a
// saturation throughput run per worker count (queries/sec, p50/p95/p99
// latency, worker-scaling curve), the same stream through the intra-batch
// solver pool, and a hot repeated-query workload, written as
// BENCH_serve.json.
//
// With -fault it runs the fault-injection suite instead: per cell, the
// conserved-flow failover repair timed against a fresh masked re-solve at
// 1..2 failed disks, and degraded serving throughput (queries/sec, p99)
// at 0..2 failed disks, written as BENCH_fault.json.
//
// With -http it runs the overload suite instead: per cell and shed
// policy, a live httpd front end on a loopback listener is calibrated
// closed-loop, then offered steady (0.5x), sustained-overload (2x), and
// flash-crowd phases open-loop, written as BENCH_http.json.
//
// Usage:
//
//	imflow-serve-bench                          # paper-scale cells, writes BENCH_serve.json
//	imflow-serve-bench -smoke                   # one tiny cell (CI benchmark smoke)
//	imflow-serve-bench -n 20 -workers 1,2,4,8   # custom sweep
//	imflow-serve-bench -fault                   # fault suite, writes BENCH_fault.json
//	imflow-serve-bench -http                    # overload suite, writes BENCH_http.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"imflow/internal/bench"
)

func main() {
	smoke := flag.Bool("smoke", false, "run the small CI smoke configuration")
	out := flag.String("out", "BENCH_serve.json", "output JSON path (- for stdout)")
	ns := flag.String("n", "", "comma-separated grid sizes (default 20,60)")
	workers := flag.String("workers", "", "comma-separated worker counts (default 1,2,4,8)")
	queries := flag.Int("queries", 0, "stream length per cell (default 400)")
	seed := flag.Uint64("seed", 0, "workload seed (default 42)")
	queueDepth := flag.Int("queue", 0, "per-shard admission queue bound (default 64)")
	batch := flag.Int("batch", 0, "max queries coalesced per worker wakeup (default 16)")
	expNum := flag.Int("exp", 0, "Table IV experiment number (default 2)")
	hotShapes := flag.Int("hot-shapes", 0, "recurring replica structures in the hot workload pool (default 8)")
	hotPercent := flag.Int("hot-percent", 0, "percent of hot-workload queries drawn from the pool (default 90)")
	faultMode := flag.Bool("fault", false, "run the fault-injection suite instead (writes BENCH_fault.json)")
	maxFailed := flag.Int("max-failed", 0, "fault suite: sweep 0..max-failed failed disks (default 2)")
	httpMode := flag.Bool("http", false, "run the HTTP overload suite instead (writes BENCH_http.json)")
	policies := flag.String("policies", "", "http suite: comma-separated shed policies (default both)")
	phase := flag.Duration("phase", 0, "http suite: open-loop phase length (default 2s)")
	flag.Parse()

	if *faultMode {
		runFaultSuite(*smoke, *out, *ns, *workers, *queries, *seed, *queueDepth, *batch, *expNum, *maxFailed)
		return
	}
	if *httpMode {
		runHTTPSuite(*smoke, *out, *ns, *workers, *queries, *seed, *policies, *phase)
		return
	}

	var o bench.ServeOptions
	if *smoke {
		o = bench.SmokeServeOptions()
	}
	if *ns != "" {
		o.Ns = parseInts(*ns, "-n")
	}
	if *workers != "" {
		o.Workers = parseInts(*workers, "-workers")
	}
	if *queries > 0 {
		o.Queries = *queries
	}
	if *seed != 0 {
		o.Seed = *seed
	}
	if *queueDepth > 0 {
		o.QueueDepth = *queueDepth
	}
	if *batch > 0 {
		o.Batch = *batch
	}
	if *expNum > 0 {
		o.ExpNum = *expNum
	}
	if *hotShapes > 0 {
		o.HotShapes = *hotShapes
	}
	if *hotPercent > 0 {
		o.HotPercent = *hotPercent
	}

	report, err := bench.RunServe(o)
	if err != nil {
		fatalf("%v", err)
	}
	writeReport(*out, report, len(report.Records))

	for _, r := range report.Records {
		fmt.Fprintf(os.Stderr, "%-28s %-16s workers=%d %9.0f q/s %8.0fus p50 %8.0fus p99 %5.0f%% warm",
			r.Cell, r.Mode, r.Workers, r.QPS, r.P50LatencyUs, r.P99LatencyUs, r.WarmRate*100)
		if r.SpeedupVsReplay > 0 {
			fmt.Fprintf(os.Stderr, " %6.2fx vs replay", r.SpeedupVsReplay)
		}
		fmt.Fprintln(os.Stderr)
	}
}

// runFaultSuite maps the shared flags onto the fault benchmark and writes
// BENCH_fault.json (unless -out overrides the path).
func runFaultSuite(smoke bool, out, ns, workers string, queries int, seed uint64, queueDepth, batch, expNum, maxFailed int) {
	var o bench.FaultOptions
	if smoke {
		o = bench.SmokeFaultOptions()
	}
	if ns != "" {
		o.Ns = parseInts(ns, "-n")
	}
	if workers != "" {
		ws := parseInts(workers, "-workers")
		o.Workers = ws[len(ws)-1] // the fault suite runs one worker count
	}
	if queries > 0 {
		o.Queries = queries
	}
	if seed != 0 {
		o.Seed = seed
	}
	if queueDepth > 0 {
		o.QueueDepth = queueDepth
	}
	if batch > 0 {
		o.Batch = batch
	}
	if expNum > 0 {
		o.ExpNum = expNum
	}
	if maxFailed > 0 {
		o.MaxFailed = maxFailed
	}
	if out == "BENCH_serve.json" {
		out = "BENCH_fault.json"
	}
	report, err := bench.RunFault(o)
	if err != nil {
		fatalf("%v", err)
	}
	writeReport(out, report, len(report.Records))

	for _, r := range report.Records {
		switch r.Mode {
		case "failover":
			fmt.Fprintf(os.Stderr, "%-28s failover       failed=%d %8.0f ns conserved %8.0f ns fresh %6.2fx speedup %8.0fus p99\n",
				r.Cell, r.FailedDisks, r.ConservedNsPerOp, r.FreshNsPerOp, r.SpeedupVsFresh, r.FailoverP99Us)
		case "serve-degraded":
			fmt.Fprintf(os.Stderr, "%-28s serve-degraded failed=%d %9.0f q/s %8.0fus p99 %6.2fx vs healthy %6d dropped\n",
				r.Cell, r.FailedDisks, r.QPS, r.P99LatencyUs, r.QPSvsHealthy, r.DroppedBuckets)
		}
	}
}

// runHTTPSuite maps the shared flags onto the overload benchmark and
// writes BENCH_http.json (unless -out overrides the path).
func runHTTPSuite(smoke bool, out, ns, workers string, queries int, seed uint64, policies string, phase time.Duration) {
	var o bench.HTTPOptions
	if smoke {
		o = bench.SmokeHTTPOptions()
	}
	if ns != "" {
		o.Ns = parseInts(ns, "-n")
	}
	if workers != "" {
		ws := parseInts(workers, "-workers")
		o.Workers = ws[len(ws)-1] // the http suite runs one shard count
	}
	if queries > 0 {
		o.Queries = queries
	}
	if seed != 0 {
		o.Seed = seed
	}
	if policies != "" {
		o.Policies = strings.Split(policies, ",")
	}
	if phase > 0 {
		o.PhaseDuration = phase
	}
	if out == "BENCH_serve.json" {
		out = "BENCH_http.json"
	}
	report, err := bench.RunHTTP(o)
	if err != nil {
		fatalf("%v", err)
	}
	writeReport(out, report, len(report.Records))

	for _, r := range report.Records {
		fmt.Fprintf(os.Stderr, "%-28s %-20s %-8s %8.0f offered/s %8.0f served/s %5.1f%% shed %8.0fus p99 %4d unanswered\n",
			r.Cell, r.Policy, r.Phase, r.OfferedQPS, r.AchievedQPS, 100*r.ShedRate, r.P99LatencyUs, r.Unanswered)
	}
}

// writeReport marshals any report to path (or stdout for "-").
func writeReport(out string, report any, records int) {
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	blob = append(blob, '\n')
	if out == "-" {
		if _, err := os.Stdout.Write(blob); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if dir := filepath.Dir(out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d records)\n", out, records)
}

func parseInts(csv, flagName string) []int {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			fatalf("bad %s element %q", flagName, f)
		}
		out = append(out, v)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "imflow-serve-bench: "+format+"\n", args...)
	os.Exit(1)
}
