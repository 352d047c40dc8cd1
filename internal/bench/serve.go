package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"imflow/internal/cost"
	"imflow/internal/experiment"
	"imflow/internal/maxflow"
	"imflow/internal/query"
	"imflow/internal/retrieval"
	"imflow/internal/serve"
	"imflow/internal/sim"
	"imflow/internal/stats"
	"imflow/internal/storage"
	"imflow/internal/xrand"
)

// ServeOptions configures the serving-layer throughput benchmark behind
// cmd/imflow-serve-bench.
type ServeOptions struct {
	Ns         []int  `json:"ns"`          // grid sizes to sweep (N x N per site)
	Queries    int    `json:"queries"`     // stream length per cell
	Seed       uint64 `json:"seed"`        // workload seed
	Workers    []int  `json:"workers"`     // server worker counts to sweep
	QueueDepth int    `json:"queue_depth"` // per-shard admission queue bound
	Batch      int    `json:"batch"`       // max queries coalesced per worker wakeup
	ExpNum     int    `json:"exp_num"`     // Table IV experiment (default 2)
	MeanGapMs  int    `json:"mean_gap_ms"` // Poisson arrival mean gap (virtual clock)

	// BatchParallelism is the intra-batch solver-pool width for the
	// "serve-bp" sweep (serve.Options.BatchParallelism); the sweep runs
	// once per worker count on the same stream as the plain "serve"
	// records, so pooled vs serial throughput is a same-workload ratio.
	// Default 2.
	BatchParallelism int `json:"batch_parallelism"`

	// Hot-workload sweep ("serve-hot"): the stream is rewritten so
	// HotPercent% of the queries draw their replica structure from a pool
	// of HotShapes recurring shapes, and the cell is measured once per
	// worker count.
	HotShapes  int `json:"hot_shapes"`  // recurring structures in the pool (default 8)
	HotPercent int `json:"hot_percent"` // percent of queries drawn from the pool (default 90)
}

// withDefaults fills zero fields with the paper-scale defaults.
func (o ServeOptions) withDefaults() ServeOptions {
	if len(o.Ns) == 0 {
		o.Ns = []int{20, 60}
	}
	if o.Queries <= 0 {
		o.Queries = 400
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 4, 8}
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Batch <= 0 {
		o.Batch = 16
	}
	if o.ExpNum == 0 {
		o.ExpNum = 2
	}
	if o.MeanGapMs <= 0 {
		o.MeanGapMs = 2
	}
	if o.HotShapes <= 0 {
		o.HotShapes = 8
	}
	if o.HotPercent <= 0 {
		o.HotPercent = 90
	}
	if o.BatchParallelism <= 0 {
		o.BatchParallelism = 2
	}
	return o
}

// SmokeServeOptions returns the small configuration the CI smoke job runs.
func SmokeServeOptions() ServeOptions {
	return ServeOptions{Ns: []int{10}, Queries: 120, Workers: []int{1, 2, 4}}.withDefaults()
}

// ServeRecord is one (cell, mode, workers) throughput measurement over the
// cell's query stream. Replay records measure the sequential simulator
// (the pre-serving-layer baseline); serve records measure the concurrent
// server in saturation (queries admitted as fast as the bounded queues
// accept).
type ServeRecord struct {
	Cell    string `json:"cell"`
	N       int    `json:"n"`
	Mode    string `json:"mode"` // "replay" or "serve"
	Solver  string `json:"solver"`
	Workers int    `json:"workers"`
	Queries int    `json:"queries"`
	Batch   int    `json:"batch,omitempty"`
	// BatchParallelism is the intra-batch solver-pool width ("serve-bp"
	// records only; zero on serial-path records).
	BatchParallelism int `json:"batch_parallelism,omitempty"`

	ElapsedNs int64   `json:"elapsed_ns"`
	QPS       float64 `json:"queries_per_sec"`
	// Latency percentiles are wall-clock per-query decision latencies:
	// solve time for replay records; queueing + batching + solve for
	// serve records.
	P50LatencyUs float64 `json:"p50_latency_us"`
	P95LatencyUs float64 `json:"p95_latency_us"`
	P99LatencyUs float64 `json:"p99_latency_us"`
	// MeanResponseUs averages the model response times the queries saw.
	MeanResponseUs float64 `json:"mean_response_us"`
	// AllocsPerOp amortizes the whole pass (including server and solver
	// construction) over the stream; the strict steady-state zero-alloc
	// guarantee is gated by AllocsPerRun unit tests, not here.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// SpeedupVsReplay is this record's QPS over the cell's replay QPS
	// (zero for hot-workload records, whose stream differs from the
	// replayed one).
	SpeedupVsReplay float64 `json:"speedup_vs_replay"`
	// DeterministicMatch (replay records only) reports that the server's
	// single-shard deterministic mode reproduced the replay response
	// times bit for bit.
	DeterministicMatch bool `json:"deterministic_match,omitempty"`

	// WarmRate is the share of solver calls that warm-started (from
	// serve.Server.SolveStats).
	WarmRate float64 `json:"warm_rate,omitempty"`
}

// ServeReport is the BENCH_serve.json document.
type ServeReport struct {
	Schema     string        `json:"schema"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs,omitempty"`
	Audit      bool          `json:"audit_build"`
	Options    ServeOptions  `json:"options"`
	Records    []ServeRecord `json:"records"`
}

// timingScheduler wraps a scheduler and records per-query wall-clock
// decision times, giving the replay baseline latency percentiles
// comparable with the server's.
type timingScheduler struct {
	inner     sim.Scheduler
	latencies []time.Duration
}

func (t *timingScheduler) Name() string { return t.inner.Name() }

func (t *timingScheduler) Schedule(p *retrieval.Problem) (*retrieval.Schedule, error) {
	start := time.Now()
	s, err := t.inner.Schedule(p)
	t.latencies = append(t.latencies, time.Since(start))
	return s, err
}

// RunServe executes the serving-layer suite: per cell, a sequential replay
// baseline, a deterministic single-shard cross-check, and a saturation
// throughput run per worker count. Every measured pass starts cold (fresh
// solvers, fresh server) so the configurations are strictly comparable.
func RunServe(o ServeOptions) (*ServeReport, error) {
	o = o.withDefaults()
	report := &ServeReport{
		Schema:     "imflow/bench-serve/v1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Audit:      maxflow.AuditEnabled,
		Options:    o,
	}
	for _, n := range o.Ns {
		cfg := experiment.Config{
			ExpNum:  o.ExpNum,
			Alloc:   experiment.RDA,
			Type:    query.Range,
			Load:    query.Load2,
			N:       n,
			Queries: 1, // the stream is drawn below; Build just needs the cell
			Seed:    o.Seed + uint64(n)*1000003,
		}
		inst, err := cfg.Build()
		if err != nil {
			return nil, err
		}
		spec := sim.StreamSpec{
			System:   inst.System,
			Alloc:    inst.Alloc,
			Type:     query.Range,
			Load:     query.Load2,
			Arrivals: sim.PoissonArrivals{Mean: cost.FromMillis(float64(o.MeanGapMs))},
			Queries:  o.Queries,
			Seed:     cfg.Seed,
		}
		stream, err := spec.Generate()
		if err != nil {
			return nil, fmt.Errorf("bench: cell %s: %w", cfg, err)
		}

		replayRec, replayResponses, err := measureReplay(inst.System, stream)
		if err != nil {
			return nil, fmt.Errorf("bench: cell %s: %w", cfg, err)
		}
		replayRec.Cell, replayRec.N = cfg.String(), n

		// Deterministic cross-check: the single-shard server must agree
		// with the replay bit for bit before any throughput number is
		// trusted.
		det, err := serve.Serve(context.Background(), inst.System, toServeStream(stream), serve.Options{
			Deterministic: true, QueueDepth: o.QueueDepth, Batch: o.Batch,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: cell %s: deterministic serve: %w", cfg, err)
		}
		for i, r := range det {
			if r.ResponseTime != replayResponses[i] {
				return nil, fmt.Errorf("bench: cell %s: deterministic serve response %v on query %d, replay %v",
					cfg, r.ResponseTime, i, replayResponses[i])
			}
		}
		replayRec.DeterministicMatch = true
		report.Records = append(report.Records, replayRec)

		for _, w := range o.Workers {
			rec, err := measureServe(inst.System, stream, w, o, "serve", 0)
			if err != nil {
				return nil, fmt.Errorf("bench: cell %s: %d workers: %w", cfg, w, err)
			}
			rec.Cell, rec.N = cfg.String(), n
			rec.SpeedupVsReplay = rec.QPS / replayRec.QPS
			report.Records = append(report.Records, rec)

			// Same stream through the intra-batch solver pool: pooled vs
			// serial throughput as a same-workload ratio.
			bpRec, err := measureServe(inst.System, stream, w, o, "serve-bp", o.BatchParallelism)
			if err != nil {
				return nil, fmt.Errorf("bench: cell %s: %d workers batch-pool: %w", cfg, w, err)
			}
			bpRec.Cell, bpRec.N = cfg.String(), n
			bpRec.SpeedupVsReplay = bpRec.QPS / replayRec.QPS
			report.Records = append(report.Records, bpRec)
		}

		// Hot workload: the repeated-query stream that warm starts exist
		// for, one record per worker count.
		hot := hotStream(stream, o.HotShapes, o.HotPercent, cfg.Seed)
		for _, w := range o.Workers {
			hotRec, err := measureServe(inst.System, hot, w, o, "serve-hot", 0)
			if err != nil {
				return nil, fmt.Errorf("bench: cell %s: hot %d workers: %w", cfg, w, err)
			}
			hotRec.Cell, hotRec.N = cfg.String(), n
			report.Records = append(report.Records, hotRec)
		}
	}
	return report, nil
}

// hotStream rewrites a stream so roughly percent% of the queries draw
// their replica structure from a pool of the first shapes structures,
// modeling a repeated-query workload. Arrival times and the remaining cold
// queries are untouched.
func hotStream(stream []sim.Query, shapes, percent int, seed uint64) []sim.Query {
	out := append([]sim.Query(nil), stream...)
	if shapes > len(stream) {
		shapes = len(stream)
	}
	if shapes == 0 {
		return out
	}
	pool := make([][][]int, shapes)
	for i := range pool {
		pool[i] = stream[i].Replicas
	}
	rng := xrand.New(seed ^ 0x5ca1ab1e)
	for i := range out {
		if rng.Intn(100) < percent {
			out[i].Replicas = pool[rng.Intn(shapes)]
		}
	}
	return out
}

// toServeStream converts a sim stream into admission requests.
func toServeStream(stream []sim.Query) []serve.Query {
	out := make([]serve.Query, len(stream))
	for i, q := range stream {
		out[i] = serve.Query{Seq: i, Arrival: q.Arrival, Replicas: q.Replicas}
	}
	return out
}

// measureReplay times the sequential simulator replay — one query at a
// time, one solver, virtual arrivals — over the stream.
func measureReplay(sys *storage.System, stream []sim.Query) (ServeRecord, []cost.Micros, error) {
	rec := ServeRecord{Mode: "replay", Solver: "pr-binary", Workers: 1, Queries: len(stream)}
	sched := &timingScheduler{
		inner:     sim.SolverScheduler{Solver: retrieval.NewPRBinary()},
		latencies: make([]time.Duration, 0, len(stream)),
	}
	simulator := sim.New(sys, sched)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	results, err := simulator.Run(append([]sim.Query(nil), stream...))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return rec, nil, err
	}
	responses := make([]cost.Micros, len(results))
	var sum cost.Micros
	for i, r := range results {
		responses[i] = r.ResponseTime
		sum = cost.SatAdd(sum, r.ResponseTime)
	}
	fillTiming(&rec, elapsed, sched.latencies, float64(after.Mallocs-before.Mallocs))
	rec.MeanResponseUs = float64(int64(sum)) / float64(len(results))
	rec.SpeedupVsReplay = 1
	return rec, responses, nil
}

// measureServe times one saturation pass of the concurrent server: the
// whole stream is admitted as fast as the bounded queues accept and the
// pass ends when the last shard drains. batchParallelism >= 2 fans each
// admission batch across the intra-batch solver pool.
func measureServe(sys *storage.System, stream []sim.Query, workers int, o ServeOptions, mode string, batchParallelism int) (ServeRecord, error) {
	rec := ServeRecord{
		Mode: mode, Solver: "pr-binary",
		Workers: workers, Queries: len(stream), Batch: o.Batch,
		BatchParallelism: batchParallelism,
	}
	sopt := serve.Options{Workers: workers, QueueDepth: o.QueueDepth, Batch: o.Batch, BatchParallelism: batchParallelism}
	qs := toServeStream(stream)
	srv, err := serve.New(sys, len(qs), sopt)
	if err != nil {
		return rec, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	srv.Start(context.Background())
	for _, q := range qs {
		if err := srv.Submit(context.Background(), q); err != nil {
			return rec, err
		}
	}
	results, err := srv.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return rec, err
	}
	latencies := make([]time.Duration, len(results))
	var sum cost.Micros
	for i, r := range results {
		latencies[i] = r.Latency
		sum = cost.SatAdd(sum, r.ResponseTime)
	}
	fillTiming(&rec, elapsed, latencies, float64(after.Mallocs-before.Mallocs))
	rec.MeanResponseUs = float64(int64(sum)) / float64(len(results))
	ss := srv.SolveStats()
	if ss.Solves > 0 {
		rec.WarmRate = float64(ss.WarmSolves) / float64(ss.Solves)
	}
	return rec, nil
}

// fillTiming derives the rate and latency-percentile fields.
func fillTiming(rec *ServeRecord, elapsed time.Duration, latencies []time.Duration, mallocs float64) {
	rec.ElapsedNs = elapsed.Nanoseconds()
	if elapsed > 0 {
		rec.QPS = float64(rec.Queries) / elapsed.Seconds()
	}
	us := make([]float64, len(latencies))
	for i, l := range latencies {
		us[i] = float64(l.Microseconds())
	}
	if len(us) > 0 {
		pcts := stats.Percentiles(us, 50, 95, 99)
		rec.P50LatencyUs = pcts[0]
		rec.P95LatencyUs = pcts[1]
		rec.P99LatencyUs = pcts[2]
	}
	rec.AllocsPerOp = mallocs / float64(rec.Queries)
}
