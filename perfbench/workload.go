package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"imflow/internal/cost"
	"imflow/internal/experiment"
	"imflow/internal/fault"
	"imflow/internal/grid"
	"imflow/internal/httpd"
	"imflow/internal/query"
	"imflow/internal/xrand"
)

// cellSeed is cmd/imflow-serve's default cell-build seed: every workload
// serves the same storage system and allocation the command serves.
const cellSeed = 42

// warmupSeed draws the warm-up traffic. It is fixed, not the workload
// seed, so every run of a workload starts its timed phases from the same
// model backlog.
const warmupSeed = 0x3a9f

// poolSeed draws a workload's query pool, shapeSeed the recurring shapes
// of a hot workload, and chaosSeed the fault schedule. They are part of
// the workload's definition, like the cell: the run's seed orders the
// pool and draws the arrivals. Drawn from the run's seed, the sizes of a
// run's largest queries, a hot workload's eight shapes, or the disks a
// schedule fails together would set much of a run's work, and runs would
// not be comparable.
const (
	poolSeed  = 0x9e3779b9
	shapeSeed = 0x5ca1ab1e
	chaosSeed = 0xfa17
)

// Hot-shape traffic, as internal/bench's hot stream defines it: hotPercent
// percent of queries repeat one of hotShapes recurring bucket sets.
const (
	hotShapes  = 8
	hotPercent = 90
)

// workload is one traffic mix through the front end. All of them use
// Table IV Exp 2 (an SSD site and an HDD site), RDA allocation, and range
// queries sent as bucket ids.
type workload struct {
	name string
	load query.Load
	n    int
	// rate is the open-loop arrival rate in requests per second (envelopes
	// on a batch workload). It stays at or below 500/s, above which
	// per-request pacing measures the timer rather than the server, and
	// low enough to leave the cores mostly idle: at 40% of closed-loop
	// throughput, queueing bursts behind the two connections made p50
	// latency vary twofold between runs.
	rate float64
	// batch, when positive, sends /v1/submit envelopes of this many
	// queries; zero sends /v1/query singletons.
	batch int
	// hot draws most queries from a few recurring shapes.
	hot bool
	// chaos runs a fault schedule through the serving layer.
	chaos bool
	// openShare and closedShare are the shares of --seconds the open- and
	// closed-loop phases last; set-up and the warm-ups take the rest. A
	// low-rate workload spends more of its run in the open loop, because
	// p99 needs minOpenSamples answers.
	openShare, closedShare float64
	// replay is how many queries of the open-loop sequence the
	// deterministic replay serves: enough for stable per-solve counts,
	// few enough to keep the replay near a second.
	replay int
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json records
// why each exists.
var workloads = []workload{
	// The paper's headline cell: the solver is most of request time.
	{name: "paper-n60", load: query.Load2, n: 60, rate: 42, replay: 120,
		openShare: 0.8, closedShare: 0.13},
	// Front-end bound: small queries, solver changes predicted flat.
	{name: "small-n20", load: query.Load3, n: 20, rate: 400, replay: 2000,
		openShare: 0.6, closedShare: 0.33},
	// The only workload whose queries share a serve batch and reuse the
	// previous network (warm starts).
	{name: "batch-hot-n20", load: query.Load2, n: 20, rate: 50, batch: 16, hot: true, replay: 1600,
		openShare: 0.75, closedShare: 0.18},
	// The only workload where fault code runs.
	{name: "fault-churn-n20", load: query.Load2, n: 20, rate: 400, chaos: true, replay: 1000,
		openShare: 0.6, closedShare: 0.33},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// config is the cell cmd/imflow-serve builds, at the workload's size and
// load.
func (w *workload) config() experiment.Config {
	return experiment.Config{
		ExpNum:  2,
		Alloc:   experiment.RDA,
		Type:    query.Range,
		Load:    w.load,
		N:       w.n,
		Queries: 1,
		Seed:    cellSeed,
	}
}

// path is the endpoint the workload posts to.
func (w *workload) path() string {
	if w.batch > 0 {
		return "/v1/submit"
	}
	return "/v1/query"
}

// perRequest is how many queries one request carries.
func (w *workload) perRequest() int {
	if w.batch > 0 {
		return w.batch
	}
	return 1
}

// chaosSchedule is the fault-churn schedule: per-disk MTBF 2 s and MTTR
// 0.3 s for failures, the same rates for factor-4 slowdowns, over a
// horizon longer than any server in a run lives.
func chaosSchedule(disks int) (*fault.Schedule, error) {
	return fault.Spec{
		NumDisks:   disks,
		Horizon:    cost.FromMillis(120_000),
		Seed:       chaosSeed,
		MTBF:       cost.FromMillis(2000),
		MTTR:       cost.FromMillis(300),
		SlowMTBF:   cost.FromMillis(2000),
		SlowMTTR:   cost.FromMillis(300),
		SlowFactor: 4,
	}.Generate()
}

// request is one generated request: its encoded JSON body and the
// bucket count of each query it carries.
type request struct {
	body  []byte
	sizes []int
}

// queryStream draws the workload's queries from one seed.
type queryStream struct {
	gen    *query.Generator
	rng    *xrand.Source
	shapes [][]int // a hot workload's recurring shapes
}

func newQueryStream(w *workload, seed uint64) *queryStream {
	qs := &queryStream{
		gen: query.NewGenerator(grid.New(w.n), query.Range, w.load),
		rng: xrand.New(seed),
	}
	if w.hot {
		shapes := xrand.New(shapeSeed)
		for i := 0; i < hotShapes; i++ {
			qs.shapes = append(qs.shapes, qs.gen.Query(shapes))
		}
	}
	return qs
}

func (qs *queryStream) next() []int {
	if len(qs.shapes) > 0 && qs.rng.Intn(100) < hotPercent {
		return qs.shapes[qs.rng.Intn(len(qs.shapes))]
	}
	return qs.gen.Query(qs.rng)
}

// draw returns the next n queries of the stream.
func (qs *queryStream) draw(n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = qs.next()
	}
	return out
}

// runQueries is a run's open-loop query sequence: the workload's fixed
// pool of n queries in an order drawn from the run's seed. Every run
// serves the same queries, so runs differ in order and arrival instants,
// not in how much work they carry.
func (w *workload) runQueries(seed uint64, n int) [][]int {
	pool := newQueryStream(w, poolSeed).draw(n)
	xrand.New(seed^0x0bde4).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// requests groups queries into requests of perRequest queries and
// encodes them.
func (w *workload) requests(queries [][]int) ([]request, error) {
	per := w.perRequest()
	out := make([]request, len(queries)/per)
	for i := range out {
		group := queries[i*per : (i+1)*per]
		r := request{sizes: make([]int, per)}
		for k, q := range group {
			r.sizes[k] = len(q)
		}
		var err error
		if r.body, err = w.encode(group); err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// encode renders one request body in the front end's wire format.
func (w *workload) encode(queries [][]int) ([]byte, error) {
	if w.batch == 0 {
		return json.Marshal(httpd.QueryRequest{Buckets: queries[0]})
	}
	sr := httpd.SubmitRequest{Queries: make([]httpd.QueryRequest, len(queries))}
	for i, q := range queries {
		sr.Queries[i].Buckets = q
	}
	return json.Marshal(sr)
}

// setupRequest is the fixed request a cold start must answer: one bucket
// per query, so set-up time does not depend on the seed's query sizes.
func (w *workload) setupRequest() (request, error) {
	queries := make([][]int, w.perRequest())
	r := request{sizes: make([]int, len(queries))}
	for k := range queries {
		queries[k] = []int{0}
		r.sizes[k] = 1
	}
	var err error
	r.body, err = w.encode(queries)
	return r, err
}

// arrivals returns the open-loop schedule: count due times over [0, span),
// drawn from seed as a Poisson process conditioned on its count in every
// second (sorted uniform instants within each one-second bin, the count
// split evenly between bins). Fixing the count per second, not only per
// phase, halves how much the model backlog, and with it the mean model
// response of paper-n60, varies between seeds (IQR/median 0.10 -> 0.055
// over 8 seeds). The schedule is fixed before any request is sent, so it
// cannot depend on how fast the server answers.
func arrivals(seed uint64, count int, span time.Duration) []time.Duration {
	rng := xrand.New(seed ^ 0xa77a1)
	bins := max(1, int(span.Round(time.Second)/time.Second))
	width := float64(span) / float64(bins)
	due := make([]time.Duration, 0, count)
	for b := 0; b < bins; b++ {
		for i := b * count / bins; i < (b+1)*count/bins; i++ {
			due = append(due, time.Duration((float64(b)+rng.Float64())*width))
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// openCount is how many requests an open-loop phase of span sends.
func (w *workload) openCount(span time.Duration) int {
	return int(math.Round(w.rate * span.Seconds()))
}

// header renders the request line and headers of one request carrying a
// body of n bytes, tagged with its request id for span linking.
func header(dst []byte, path string, id int64, n int) []byte {
	dst = append(dst, "POST "...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nX-Request-Id: "...)
	dst = strconv.AppendInt(dst, id, 10)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, "\r\n\r\n"...)
}
