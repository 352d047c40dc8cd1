// Command perfbench is the repository's benchmark. For one workload it
// cold-starts the HTTP front end in-process, exactly as cmd/imflow-serve
// builds it by default, serves it on a loopback listener, and drives it
// from the same process with two sending goroutines over two
// connections: an open-loop phase on a seeded arrival schedule, then a
// closed-loop phase, each on a fresh server after a fixed warm-up. Every
// answer is checked, and a deterministic replay of the open-loop queries
// must match sim.Simulator bit for bit. The last line of standard output
// is one JSON object with the end-to-end metrics, or with --trace 1 the
// per-layer metrics of a traced run. Any failed check exits non-zero
// without printing it.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload paper-n60 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload name (paper-n60, small-n20, batch-hot-n20, fault-churn-n20)")
	seed := flag.Uint64("seed", 1, "workload seed: arrival instants and the order of the query pool")
	seconds := flag.Int("seconds", 30, "measured seconds, split between the open- and closed-loop phases")
	trace := flag.Int("trace", 0, "1 runs the traced phases and prints the per-layer metrics")
	flag.Parse()

	res, err := runFlags(os.Stdout, *name, *seed, *seconds, *trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
}

func runFlags(out io.Writer, name string, seed uint64, seconds, trace int) (*result, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	return run(out, w, seed, time.Duration(seconds)*time.Second, trace == 1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

var errIncorrect = errors.New("correctness check failed")

// endToEndMetrics and perLayerMetrics name every metric an untraced and a
// traced run reports, with its unit, as BENCHMARK.json lists them.
var (
	endToEndMetrics = map[string]string{
		"setup_s":          "s",
		"latency_p50_ms":   "ms",
		"throughput_qps":   "1/s",
		"served_share":     "ratio",
		"response_mean_ms": "ms",
		"cpu_ms_per_query": "ms",
		"rss_peak_mb":      "MB",
	}
	perLayerMetrics = map[string]string{
		"httpd.handler_ms_p50":              "ms",
		"httpd.handler_ms_p99":              "ms",
		"httpd.self_ms_mean":                "ms",
		"httpd.transport_ms_mean":           "ms",
		"httpd.decode_us_per_query":         "us",
		"httpd.decode_allocs_per_query":     "count",
		"httpd.retries_per_query":           "count",
		"httpd.refused_share":               "ratio",
		"serve.latency_ms_p50":              "ms",
		"serve.latency_ms_p99":              "ms",
		"serve.wait_ms_mean":                "ms",
		"serve.queue_depth_mean":            "count",
		"serve.solves_per_query":            "count",
		"serve.warm_share":                  "ratio",
		"retrieval.solve_ms_mean":           "ms",
		"retrieval.solve_ms_p99":            "ms",
		"retrieval.failover_ms_mean":        "ms",
		"retrieval.failovers":               "count",
		"retrieval.replay_us_per_solve":     "us",
		"retrieval.replay_allocs_per_solve": "count",
		"retrieval.binary_steps_per_solve":  "count",
		"retrieval.maxflow_runs_per_solve":  "count",
		"maxflow.pushes_per_solve":          "count",
		"maxflow.relabels_per_solve":        "count",
		"maxflow.global_relabels_per_solve": "count",
		"maxflow.arc_scans_per_solve":       "count",
		"fault.degraded_share":              "ratio",
		"fault.dropped_buckets_per_query":   "count",
		"fault.retries":                     "count",
		"fault.rejected":                    "count",
	}
)

func metricNames(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metrics is a run's reported values by name.
type metrics map[string]metric

// set records a declared metric with its declared unit.
func (m metrics) set(name string, v float64) {
	unit, ok := endToEndMetrics[name]
	if !ok {
		unit, ok = perLayerMetrics[name]
	}
	if !ok {
		panic("perfbench: undeclared metric " + name) // a bug: every metric is declared above
	}
	m[name] = metric{v, unit}
}
