package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"imflow/internal/maxflow"
	"imflow/internal/retrieval"
	"imflow/internal/serve"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own code around the calls into each layer. Times are
// nanoseconds since the tracer's origin.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shard  int    `json:"shard,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names, one per layer boundary.
const (
	spanClient   = "client.request"     // root: generator send to last answer byte
	spanHandle   = "httpd.handle"       // httpd.Server.ServeHTTP, linked by X-Request-Id
	spanServe    = "serve.latency"      // from the answer's latency_us, ending with its handle span
	spanSolve    = "retrieval.solve"    // SolveInto / SolveMaskedInto on a shard solver
	spanFailover = "retrieval.failover" // MarkFailed on a shard solver
)

// tracer keeps spans in memory until the run ends. Request ids and span
// ids come from one counter, so a client span's id is its X-Request-Id.
type tracer struct {
	origin time.Time
	ids    atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu

	// solvers are the current server's wrapped shard solvers in creation
	// order, which is shard order: serve builds one per worker, worker 0
	// first.
	solverMu sync.Mutex
	solvers  []*observedSolver // guarded by solverMu

	// Schedule sampling through serve.Options.OnSchedule: every
	// sampleEvery-th schedule is copied, up to maxSamples; sampleEvery
	// <= 0 samples none.
	sampleEvery atomic.Int64
	seen        atomic.Int64
	sampleMu    sync.Mutex
	samples     []scheduleSample // guarded by sampleMu
	sampleErr   error            // guarded by sampleMu
}

const maxSamples = 48

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.sampleEvery.Store(1)
	return t
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.origin)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded since the last take.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// tracedHandler times httpd.Server.ServeHTTP for each request.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (t *tracer) handler(next http.Handler) http.Handler { return &tracedHandler{next: next, tr: t} }

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	parent, _ := strconv.ParseInt(r.Header.Get("X-Request-Id"), 10, 64) // 0 leaves it unlinked
	h.tr.add(span{Name: spanHandle, ID: h.tr.ids.Add(1), Parent: parent,
		Start: h.tr.since(start), End: h.tr.since(end)})
}

// resetSolvers forgets the previous server's solvers before a new server
// builds its own.
func (t *tracer) resetSolvers() {
	t.solverMu.Lock()
	t.solvers = nil
	t.solverMu.Unlock()
}

// newSolver is the serve.Options.NewSolver hook: the default shard solver
// wrapped so its calls are timed and its failure mask is known.
func (t *tracer) newSolver() retrieval.ReusableSolver {
	t.solverMu.Lock()
	defer t.solverMu.Unlock()
	s := &observedSolver{inner: retrieval.NewPRBinary(), tr: t, shard: len(t.solvers)}
	t.solvers = append(t.solvers, s)
	return s
}

// onSchedule is the serve.Options.OnSchedule hook: it copies every
// sampleEvery-th schedule, with the mask its shard solver used, for an
// independent check after the phase.
func (t *tracer) onSchedule(worker int, _ *serve.Query, p *retrieval.Problem, s *retrieval.Schedule) {
	every := t.sampleEvery.Load()
	if every <= 0 || (t.seen.Add(1)-1)%every != 0 {
		return
	}
	t.solverMu.Lock()
	var solver *observedSolver
	if worker < len(t.solvers) {
		solver = t.solvers[worker]
	}
	t.solverMu.Unlock()
	t.sampleMu.Lock()
	defer t.sampleMu.Unlock()
	if len(t.samples) >= maxSamples || t.sampleErr != nil {
		return
	}
	if solver == nil || solver.last != p {
		t.sampleErr = fmt.Errorf("worker %d's schedule was not solved by shard solver %d", worker, worker)
		return
	}
	sm := scheduleSample{mask: retrieval.NewDiskMask(len(p.Disks))}
	sm.mask.CopyFrom(solver.mask)
	sm.prob.Disks = append([]retrieval.DiskParams(nil), p.Disks...)
	sm.prob.Replicas = make([][]int, len(p.Replicas))
	for i, reps := range p.Replicas {
		sm.prob.Replicas[i] = append([]int(nil), reps...)
	}
	sm.sched = retrieval.Schedule{
		Assignment:   append([]int(nil), s.Assignment...),
		Counts:       append([]int64(nil), s.Counts...),
		ResponseTime: s.ResponseTime,
	}
	t.samples = append(t.samples, sm)
}

// takeSamples returns the sampled schedules and resets sampling to one in
// every `every` schedules; every <= 0 turns sampling off.
func (t *tracer) takeSamples(every int64) ([]scheduleSample, error) {
	t.sampleMu.Lock()
	defer t.sampleMu.Unlock()
	out, err := t.samples, t.sampleErr
	t.samples, t.sampleErr = nil, nil
	t.sampleEvery.Store(every)
	t.seen.Store(0)
	return out, err
}

// observedSolver wraps a shard's PRBinary. It always accumulates the
// work counts of its solves; with a tracer it also records a span per
// call and tracks the failure mask of the last solved problem.
type observedSolver struct {
	inner *retrieval.PRBinary
	tr    *tracer // nil: count only
	shard int

	// Owned by the shard's worker goroutine; read by onSchedule on the
	// same goroutine, and by the benchmark after the server has drained.
	last   *retrieval.Problem
	mask   *retrieval.DiskMask
	counts solveCounts
}

// solveCounts sums retrieval.Stats over a solver's full solves.
type solveCounts struct {
	solves, maxflowRuns, binarySteps int64
	flow                             maxflow.Metrics
}

func (c *solveCounts) add(st *retrieval.Stats) {
	c.solves++
	c.maxflowRuns += int64(st.MaxflowRuns)
	c.binarySteps += int64(st.BinarySteps)
	c.flow.Add(&st.Flow)
}

func (s *observedSolver) Name() string { return s.inner.Name() }

func (s *observedSolver) Solve(p *retrieval.Problem) (*retrieval.Result, error) {
	return s.inner.Solve(p)
}

func (s *observedSolver) SolveInto(p *retrieval.Problem, res *retrieval.Result) error {
	start := time.Now()
	err := s.inner.SolveInto(p, res)
	s.solved(start, p, nil, res)
	return err
}

func (s *observedSolver) SolveMaskedInto(p *retrieval.Problem, mask *retrieval.DiskMask, res *retrieval.Result) error {
	start := time.Now()
	err := s.inner.SolveMaskedInto(p, mask, res)
	s.solved(start, p, mask, res)
	return err
}

// solved records one full solve that began at start.
func (s *observedSolver) solved(start time.Time, p *retrieval.Problem, mask *retrieval.DiskMask, res *retrieval.Result) {
	end := time.Now()
	s.counts.add(&res.Stats)
	if s.tr == nil {
		return
	}
	s.tr.add(span{Name: spanSolve, ID: s.tr.ids.Add(1), Start: s.tr.since(start), End: s.tr.since(end), Shard: s.shard})
	s.last = p
	if s.mask == nil {
		s.mask = retrieval.NewDiskMask(len(p.Disks))
	}
	if mask == nil {
		s.mask.Reset(len(p.Disks))
	} else {
		s.mask.CopyFrom(mask)
	}
}

func (s *observedSolver) MarkFailed(disk int, res *retrieval.Result) error {
	start := time.Now()
	err := s.inner.MarkFailed(disk, res)
	end := time.Now()
	if s.tr != nil {
		s.tr.add(span{Name: spanFailover, ID: s.tr.ids.Add(1), Start: s.tr.since(start), End: s.tr.since(end), Shard: s.shard})
		s.mask.MarkFailed(disk)
	}
	return err
}

// writeSpans writes every span, one JSON object per line, to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close() // already failing
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // already failing
		return err
	}
	return f.Close()
}
