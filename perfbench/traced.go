package main

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"imflow/internal/httpd"
	"imflow/internal/retrieval"
)

// failoverProbes is how many sampled live problems the failover probe
// repairs.
const failoverProbes = 16

// traced runs the traced phases: the open loop with every wrapper on,
// then the closed loop split into an untraced and a traced half for the
// tracing overhead. It adds the deterministic replay, a decode run over
// the workload's bodies, a failover probe and the independent check of
// the sampled schedules, and returns the per-layer metrics.
func (r *runner) traced(closedSpan time.Duration) (*result, error) {
	w := r.w
	per := w.perRequest()
	tr := newTracer()
	every := int64(max(1, len(r.open)*per/maxSamples))
	open, err := r.phase(tr, every, r.openTraffic())
	if err != nil {
		return nil, fmt.Errorf("traced open loop: %w", err)
	}
	samples, err := tr.takeSamples(0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errIncorrect, err)
	}
	if _, err := r.openLoopReport("traced open loop", open); err != nil {
		return nil, err
	}

	plain, err := r.phase(nil, 0, r.closedTraffic(closedSpan/2))
	if err != nil {
		return nil, fmt.Errorf("closed loop: %w", err)
	}
	closed, err := r.phase(tr, 0, r.closedTraffic(closedSpan/2))
	if err != nil {
		return nil, fmt.Errorf("traced closed loop: %w", err)
	}
	r.printOverhead(plain, closed)

	for i := range samples {
		if err := checkSchedule(&samples[i]); err != nil {
			return nil, fmt.Errorf("%w: sampled live schedule %d: %v", errIncorrect, i, err)
		}
	}
	r.printf("schedules: %d sampled live schedules valid and equal to an independent solve", len(samples))
	failoverMs, err := failoverProbe(samples)
	if err != nil {
		return nil, fmt.Errorf("%w: failover probe: %v", errIncorrect, err)
	}

	rep, err := r.checkReplay()
	if err != nil {
		return nil, err
	}
	decodeUs, decodeAllocs, err := r.decodeCost()
	if err != nil {
		return nil, err
	}

	m, err := r.layerMetrics(open, tr)
	if err != nil {
		return nil, err
	}
	solves := float64(rep.counts.solves)
	m.set("httpd.decode_us_per_query", decodeUs)
	m.set("httpd.decode_allocs_per_query", decodeAllocs)
	m.set("retrieval.failover_ms_mean", failoverMs)
	m.set("retrieval.replay_us_per_solve", ratio(float64(rep.elapsed)/1e3, solves))
	m.set("retrieval.replay_allocs_per_solve", ratio(float64(rep.mallocs), solves))
	m.set("retrieval.binary_steps_per_solve", ratio(float64(rep.counts.binarySteps), solves))
	m.set("retrieval.maxflow_runs_per_solve", ratio(float64(rep.counts.maxflowRuns), solves))
	m.set("maxflow.pushes_per_solve", ratio(float64(rep.counts.flow.Pushes), solves))
	m.set("maxflow.relabels_per_solve", ratio(float64(rep.counts.flow.Relabels), solves))
	m.set("maxflow.global_relabels_per_solve", ratio(float64(rep.counts.flow.GlobalRelabels), solves))
	m.set("maxflow.arc_scans_per_solve", ratio(float64(rep.counts.flow.ArcScans), solves))

	if err := writeSpans(spansPath(w, r.seed), open.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	r.printf("spans: %d of the traced open loop written to %s", len(open.spans), spansPath(w, r.seed))

	attempted := open.attempted + plain.attempted + closed.attempted
	served := open.served + plain.served + closed.served
	return &result{Correct: true, Attempted: attempted, Failed: attempted - served, Metrics: m}, nil
}

// layerMetrics derives the per-layer metrics of the traced open-loop
// phase from its spans, answers and front-end counters, prints the
// latency attribution, and appends the client and serve spans to
// p.spans.
func (r *runner) layerMetrics(p *phaseResult, tr *tracer) (metrics, error) {
	handles := map[int64]span{}
	var handleMs, solveMs []float64
	var solveTotal, failoverTotal time.Duration
	failovers := 0
	for _, s := range p.spans {
		switch s.Name {
		case spanHandle:
			handles[s.Parent] = s
			handleMs = append(handleMs, ms(s.dur()))
		case spanSolve:
			solveMs = append(solveMs, ms(s.dur()))
			solveTotal += s.dur()
		case spanFailover:
			failovers++
			failoverTotal += s.dur()
		}
	}

	// Per answered request: client latency from its due time, split into
	// generator lateness, transport (client round trip minus handler),
	// httpd self time (handler minus the serve interval) and the serve
	// interval, which is the answer's latency_us (the slowest item of an
	// envelope).
	origin := tr.since(p.start)
	var n, late, client, transport, self, serveSum float64
	var serveMs []float64
	for i := range p.samples {
		s := &p.samples[i]
		p.spans = append(p.spans, span{Name: spanClient, ID: s.id,
			Start: origin + int64(s.sent), End: origin + int64(s.done)})
		if s.status != http.StatusOK {
			continue
		}
		var interval time.Duration
		for _, o := range s.outcomes {
			if o.served {
				lat := time.Duration(o.latencyUs) * time.Microsecond
				interval = max(interval, lat)
				serveMs = append(serveMs, ms(lat))
			}
		}
		h, ok := handles[s.id]
		if !ok {
			return nil, fmt.Errorf("request %d has no %s span", s.id, spanHandle)
		}
		p.spans = append(p.spans, span{Name: spanServe, ID: tr.ids.Add(1), Parent: h.ID,
			Start: h.End - int64(interval), End: h.End})
		n++
		late += ms(s.sent - s.due)
		client += ms(s.latency())
		transport += ms(s.done-s.sent) - ms(h.dur())
		self += ms(h.dur()) - ms(interval)
		serveSum += ms(interval)
	}

	solveAll := ms(solveTotal + failoverTotal)
	solvePerReq := solveAll / n
	wait := serveSum/n - solvePerReq
	residual := client/n - (late/n + transport/n + self/n + wait + solvePerReq)
	r.printf("attribution over %d answered requests, mean ms: client %.3f = generator late %.3f + transport %.3f + httpd self %.3f + serve wait %.3f + solve %.3f + residual %.3f",
		int(n), client/n, late/n, transport/n, self/n, wait, solvePerReq, residual)
	r.printf("solver share: %.1f%% of client latency, %.1f%% of request time (send to answer)",
		100*solvePerReq/(client/n), 100*solvePerReq/((client-late)/n))
	if wait < 0 {
		r.printf("serve wait is negative: solves of an envelope's first items overlap httpd's dispatch of the rest")
	}

	m := metrics{}
	var err error
	pct := func(name string, xs []float64, q float64) {
		if err != nil {
			return
		}
		var v float64
		if v, err = percentile(xs, q); err != nil {
			err = fmt.Errorf("%s: %w", name, err)
			return
		}
		m.set(name, v)
	}
	pct("httpd.handler_ms_p50", handleMs, 0.50)
	pct("httpd.handler_ms_p99", handleMs, 0.99)
	pct("serve.latency_ms_p50", serveMs, 0.50)
	pct("serve.latency_ms_p99", serveMs, 0.99)
	pct("retrieval.solve_ms_p99", solveMs, 0.99)
	if err != nil {
		return nil, err
	}
	r.printf("samples behind the percentiles: handler %d, serve %d, solve %d", len(handleMs), len(serveMs), len(solveMs))

	b, a := &p.before, &p.after
	requests := float64(a.Requests - b.Requests)
	servedCounter := float64(a.Served - b.Served)
	solves := float64(a.Serve.Solves - b.Serve.Solves)
	m.set("httpd.self_ms_mean", self/n)
	m.set("httpd.transport_ms_mean", transport/n)
	m.set("httpd.retries_per_query", ratio(float64(a.Retries-b.Retries), requests))
	m.set("httpd.refused_share", ratio(requests-servedCounter, requests))
	m.set("serve.wait_ms_mean", mean(serveMs)-solveAll/float64(p.served))
	m.set("serve.queue_depth_mean", p.queueDepth)
	m.set("serve.solves_per_query", ratio(solves, servedCounter))
	m.set("serve.warm_share", ratio(float64(a.Serve.WarmSolves-b.Serve.WarmSolves), solves))
	m.set("retrieval.solve_ms_mean", mean(solveMs))
	m.set("retrieval.failovers", float64(failovers))
	m.set("fault.degraded_share", ratio(float64(a.Fault.DegradedQueries-b.Fault.DegradedQueries), servedCounter))
	m.set("fault.dropped_buckets_per_query", ratio(float64(a.Fault.DroppedBuckets-b.Fault.DroppedBuckets), servedCounter))
	m.set("fault.retries", float64(a.Fault.Retries-b.Fault.Retries))
	m.set("fault.rejected", float64(a.Fault.Rejected-b.Fault.Rejected))
	return m, nil
}

// printOverhead compares the untraced and traced closed-loop halves.
func (r *runner) printOverhead(plain, traced *phaseResult) {
	pq := float64(plain.served) / plain.elapsed.Seconds()
	tq := float64(traced.served) / traced.elapsed.Seconds()
	r.printf("tracing overhead: closed loop %.1f queries/s untraced, %.1f traced (%+.1f%%, %+.4f ms per query)",
		pq, tq, 100*(tq-pq)/pq, 1e3/tq-1e3/pq)
}

// decodeCost runs the front end's decoder over the open-loop bodies and
// returns the time and heap allocations per query.
func (r *runner) decodeCost() (us, allocs float64, err error) {
	lim := httpd.Limits{Buckets: r.cell.Alloc.Grid.Buckets(), Disks: r.cell.System.NumDisks()}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := range r.open {
		if r.w.batch > 0 {
			_, err = httpd.DecodeSubmit(r.open[i].body, lim)
		} else {
			_, err = httpd.DecodeQuery(r.open[i].body, lim)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("%w: decoding request %d: %v", errIncorrect, i, err)
		}
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	queries := float64(len(r.open) * r.w.perRequest())
	return float64(took) / 1e3 / queries, float64(after.Mallocs-before.Mallocs) / queries, nil
}

// failoverProbe repairs sampled live problems in place: it solves each
// under its mask, fails the disk carrying the most blocks with MarkFailed,
// checks the repair against an independent solve with that disk masked
// too, and returns the mean MarkFailed time in milliseconds.
func failoverProbe(samples []scheduleSample) (float64, error) {
	var total time.Duration
	n := 0
	for i := range samples {
		if n == failoverProbes {
			break
		}
		s := &samples[i]
		solver := retrieval.NewPRBinary()
		res := &retrieval.Result{}
		if err := allowPartial(solver.SolveMaskedInto(&s.prob, s.mask, res)); err != nil {
			return 0, err
		}
		disk := busiest(res.Schedule.Counts)
		if disk < 0 {
			continue // every bucket dropped: nothing to fail
		}
		start := time.Now()
		err := solver.MarkFailed(disk, res)
		total += time.Since(start)
		n++
		if err := allowPartial(err); err != nil {
			return 0, err
		}
		repaired := scheduleSample{prob: s.prob, sched: *res.Schedule, mask: retrieval.NewDiskMask(len(s.prob.Disks))}
		repaired.mask.CopyFrom(s.mask)
		repaired.mask.MarkFailed(disk)
		if err := checkSchedule(&repaired); err != nil {
			return 0, fmt.Errorf("after failing disk %d: %w", disk, err)
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("no sampled schedule to fail a disk under")
	}
	return ms(total) / float64(n), nil
}

// allowPartial treats a partial retrieval (buckets dropped because every
// replica is down) as the success it is.
func allowPartial(err error) error {
	var inf *retrieval.InfeasibleError
	if errors.As(err, &inf) {
		return nil
	}
	return err
}

// busiest is the disk with the most blocks, -1 if none has any.
func busiest(counts []int64) int {
	best := -1
	for j, k := range counts {
		if k > 0 && (best < 0 || k > counts[best]) {
			best = j
		}
	}
	return best
}
