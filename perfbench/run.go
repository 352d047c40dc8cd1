package main

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"imflow/internal/cost"
	"imflow/internal/experiment"
	"imflow/internal/fault"
	"imflow/internal/httpd"
)

const (
	// setupStarts is how many cold starts set-up time is the median of.
	setupStarts = 101
	// warmupRequests is the fixed warm-up before every timed phase.
	warmupRequests = 32
	// minOpenSamples is the open-loop sample count the printed p99 needs.
	minOpenSamples = 1000
)

// runner holds one run's generated inputs.
type runner struct {
	w      *workload
	seed   uint64
	out    io.Writer
	chaos  *fault.Schedule
	cell   *experiment.Instance // for the replay and decode limits
	setup  request
	warm   []request
	open   []request // the open-loop requests; the closed loop cycles them
	due    []time.Duration
	replay [][]int // the first queries of the open-loop sequence
	ids    atomic.Int64
}

func (r *runner) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

func run(out io.Writer, w *workload, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	probeBefore := hostProbe()
	r := &runner{w: w, seed: seed, out: out}
	openSpan := time.Duration(w.openShare * float64(seconds))
	closedSpan := time.Duration(w.closedShare * float64(seconds))
	count := w.openCount(openSpan)
	if count < minOpenSamples {
		return nil, fmt.Errorf("%s: %v of open loop at %g/s sends %d requests; p99 needs %d", w.name, openSpan, w.rate, count, minOpenSamples)
	}
	if err := r.generate(count, openSpan); err != nil {
		return nil, err
	}
	r.printf("perfbench %s seed=%d seconds=%v trace=%v", w.name, seed, seconds.Seconds(), traced)
	r.printf("host probe before: %.2f sha256-4KiB/ms", probeBefore)

	setup, err := r.measureSetup()
	if err != nil {
		return nil, err
	}
	var res *result
	declared := endToEndMetrics
	if traced {
		res, err = r.traced(closedSpan)
		declared = perLayerMetrics
	} else {
		res, err = r.untraced(closedSpan, setup)
	}
	if err != nil {
		return nil, err
	}
	if len(res.Metrics) != len(declared) {
		return nil, fmt.Errorf("reported %d metrics, declared %d", len(res.Metrics), len(declared))
	}
	r.printf("host probe after: %.2f sha256-4KiB/ms", hostProbe())
	return res, nil
}

// generate draws the run's inputs from the seed.
func (r *runner) generate(count int, openSpan time.Duration) error {
	w := r.w
	var err error
	if r.cell, err = w.config().Build(); err != nil {
		return err
	}
	if w.chaos {
		if r.chaos, err = chaosSchedule(r.cell.System.NumDisks()); err != nil {
			return err
		}
	}
	if r.setup, err = w.setupRequest(); err != nil {
		return err
	}
	if r.warm, err = w.requests(newQueryStream(w, warmupSeed).draw(warmupRequests * w.perRequest())); err != nil {
		return err
	}
	queries := w.runQueries(r.seed, count*w.perRequest())
	if r.open, err = w.requests(queries); err != nil {
		return err
	}
	r.replay = queries[:min(w.replay, len(queries))]
	r.due = arrivals(r.seed, count, openSpan)
	return nil
}

// measureSetup is the median of setupStarts cold starts.
func (r *runner) measureSetup() (time.Duration, error) {
	starts := make([]float64, setupStarts)
	for i := range starts {
		d, err := coldStart(r.w, r.chaos, r.setup)
		if err != nil {
			return 0, fmt.Errorf("cold start %d: %w", i, err)
		}
		starts[i] = float64(d)
	}
	d := time.Duration(median(starts))
	r.printf("setup: median of %d cold starts %.3f ms", setupStarts, ms(d))
	return d, nil
}

// phaseResult is one timed phase on a fresh server.
type phaseResult struct {
	samples []sample  // open loop only; a closed loop keeps counts
	start   time.Time // the instant sample times count from
	// Queries attempted and answered 200, and the time from the phase
	// start to the last answer.
	attempted, served int
	elapsed           time.Duration
	cpu               time.Duration
	// Front-end counters around the phase.
	before, after httpd.Stats
	// Summed shard queue depth, sampled during traced phases.
	queueDepth float64
	spans      []span
}

// traffic sends a phase's requests to addr and records them in p.
type traffic func(p *phaseResult, addr string, ids *atomic.Int64) error

func (r *runner) openTraffic() traffic {
	bodies := bodiesOf(r.open)
	return func(p *phaseResult, addr string, ids *atomic.Int64) error {
		var err error
		if p.samples, p.start, err = openLoop(addr, r.w.path(), bodies, r.due, ids, r.checker(r.open)); err != nil {
			return err
		}
		p.attempted = len(p.samples) * r.w.perRequest()
		for i := range p.samples {
			p.elapsed = max(p.elapsed, p.samples[i].done)
			for _, o := range p.samples[i].outcomes {
				if o.served {
					p.served++
				}
			}
		}
		return nil
	}
}

func (r *runner) closedTraffic(span time.Duration) traffic {
	bodies := bodiesOf(r.open)
	return func(p *phaseResult, addr string, ids *atomic.Int64) error {
		t, err := closedLoop(addr, r.w.path(), bodies, span, 0, ids, r.checker(r.open))
		p.attempted, p.served, p.elapsed = t.requests*r.w.perRequest(), t.served, t.last
		return err
	}
}

// checker checks answers to reqs.
func (r *runner) checker(reqs []request) checker {
	return func(req, status int, body []byte) ([]outcome, error) {
		return r.w.checkAnswer(&reqs[req], status, body)
	}
}

func bodiesOf(reqs []request) [][]byte {
	out := make([][]byte, len(reqs))
	for i := range reqs {
		out[i] = reqs[i].body
	}
	return out
}

// phase runs send on a fresh server after the fixed warm-up. With a
// tracer, the handler and shard solvers are wrapped, one schedule in
// sampleEvery is sampled, and the summed queue depth is polled.
func (r *runner) phase(tr *tracer, sampleEvery int64, send traffic) (*phaseResult, error) {
	srv, err := startServer(r.w, r.chaos, tr)
	if err != nil {
		return nil, err
	}
	p, err := r.measure(srv, tr, sampleEvery, send)
	if cerr := srv.close(); err == nil && cerr != nil {
		err = cerr
	}
	return p, err
}

func (r *runner) measure(srv *server, tr *tracer, sampleEvery int64, send traffic) (*phaseResult, error) {
	ids := &r.ids
	if tr != nil {
		ids = &tr.ids
	}
	if _, err := closedLoop(srv.addr, r.w.path(), bodiesOf(r.warm), time.Hour, len(r.warm), ids, r.checker(r.warm)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	p := &phaseResult{}
	var stopSampling func() float64
	if tr != nil {
		tr.take()
		if _, err := tr.takeSamples(sampleEvery); err != nil {
			return nil, err
		}
		stopSampling = sampleQueueDepth(srv)
		defer stopSampling() // stops the poller on the error paths too
	}
	p.before = srv.front.Stats()
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	if err := send(p, srv.addr, ids); err != nil {
		return nil, err
	}
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	p.after = srv.front.Stats()
	if tr != nil {
		p.queueDepth = stopSampling()
		p.spans = tr.take()
	}
	return p, nil
}

// sampleQueueDepth polls the summed shard queue depth every millisecond
// until the returned function is first called; that function returns the
// mean.
func sampleQueueDepth(srv *server) func() float64 {
	stop := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	var sum, n float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var buf []int
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				buf = srv.front.FaultServer().QueueDepths(buf)
				for _, d := range buf {
					sum += float64(d)
				}
				n++
			}
		}
	}()
	return func() float64 {
		once.Do(func() {
			close(stop)
			wg.Wait()
		})
		return ratio(sum, n)
	}
}

// openLoopReport prints the latency and the generator's validity figures
// of an open-loop phase and returns the latency p50 in ms, each request
// timed from its due time to the last byte of its 200 answer. The p99 is
// printed with its sample count but not reported as a metric: on a shared
// 2-core host it moved by more than its 25% bound between runs of the
// same code.
func (r *runner) openLoopReport(label string, p *phaseResult) (p50 float64, err error) {
	var lat, late []float64
	waited := 0
	for i := range p.samples {
		s := &p.samples[i]
		if s.waited {
			waited++
		}
		if s.status == http.StatusOK {
			lat = append(lat, ms(s.latency()))
			late = append(late, ms(s.sent-s.due))
		}
	}
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return 0, fmt.Errorf("%s latency: %w", label, err)
	}
	if p50, err = percentile(lat, 0.50); err != nil {
		return 0, fmt.Errorf("%s latency: %w", label, err)
	}
	l50, err := percentile(late, 0.50)
	if err != nil {
		return 0, err
	}
	l99, err := percentile(late, 0.99)
	if err != nil {
		return 0, err
	}
	r.printf("%s: %d requests at %g/s over %.1f s; latency p50 %.3f ms, p99 %.3f ms (n=%d)",
		label, len(p.samples), r.w.rate, p.elapsed.Seconds(), p50, p99, len(lat))
	r.printf("%s generator: sent late p50 %.3f ms p99 %.3f ms (n=%d); %d of %d waited for a free connection",
		label, l50, l99, len(late), waited, len(p.samples))
	if l50 > 0.25*p50 {
		r.printf("%s WARNING: generator lateness p50 %.3f ms is over a quarter of latency p50 %.3f ms; latency here measures the timer as much as the server",
			label, l50, p50)
	}
	return p50, nil
}

// untraced runs the end-to-end phases and returns the end-to-end metrics.
func (r *runner) untraced(closedSpan, setup time.Duration) (*result, error) {
	open, err := r.phase(nil, 0, r.openTraffic())
	if err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	p50, err := r.openLoopReport("open loop", open)
	if err != nil {
		return nil, err
	}
	var respSum float64
	for i := range open.samples {
		for _, o := range open.samples[i].outcomes {
			if o.served {
				respSum += float64(o.responseUs) / 1000
			}
		}
	}

	closed, err := r.phase(nil, 0, r.closedTraffic(closedSpan))
	if err != nil {
		return nil, fmt.Errorf("closed loop: %w", err)
	}
	qps := float64(closed.served) / closed.elapsed.Seconds()
	r.printf("closed loop: %d connections, %d of %d queries answered in %.2f s, %.1f queries/s",
		senders, closed.served, closed.attempted, closed.elapsed.Seconds(), qps)

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if _, err := r.checkReplay(); err != nil {
		return nil, err
	}

	attempted, served := open.attempted+closed.attempted, open.served+closed.served
	m := metrics{}
	m.set("setup_s", setup.Seconds())
	m.set("latency_p50_ms", p50)
	m.set("throughput_qps", qps)
	m.set("served_share", float64(served)/float64(attempted))
	m.set("response_mean_ms", ratio(respSum, float64(open.served)))
	m.set("cpu_ms_per_query", ratio(ms(open.cpu), float64(open.served)))
	m.set("rss_peak_mb", rss)
	return &result{Correct: true, Attempted: attempted, Failed: attempted - served, Metrics: m}, nil
}

// replayArrivals maps the kept open-loop queries to their due instants on
// the model clock: every query of an envelope arrives with it.
func (r *runner) replayArrivals() []cost.Micros {
	out := make([]cost.Micros, len(r.replay))
	for i := range out {
		out[i] = cost.Micros(r.due[i/r.w.perRequest()] / time.Microsecond)
	}
	return out
}

// checkReplay replays the kept open-loop queries deterministically and
// checks them against the simulator.
func (r *runner) checkReplay() (*replayResult, error) {
	rep, err := replay(r.cell, r.replay, r.replayArrivals(), r.chaos)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errIncorrect, err)
	}
	r.printf("replay: %d queries through deterministic serve match sim.Simulator bit for bit (%.1f ms)",
		rep.queries, ms(rep.elapsed))
	return rep, nil
}

// spansPath is where a traced run writes its spans, inside the build
// directory the run script uses.
func spansPath(w *workload, seed uint64) string {
	return filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
}
