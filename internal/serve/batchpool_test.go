package serve

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"imflow/internal/cost"
	"imflow/internal/retrieval"
	"imflow/internal/threads"
)

// poolTestServer builds a server primed for driving worker batches
// directly (white-box): started, clock running, no shard goroutines.
func poolTestServer(t *testing.T, queries int, seed uint64, opt Options) (*Server, []Query) {
	t.Helper()
	sys, stream := testStream(t, queries, seed)
	s, err := New(sys, len(stream), opt)
	if err != nil {
		t.Fatal(err)
	}
	s.started = true
	s.start = time.Now()
	return s, toServeQueries(stream)
}

// TestBatchPoolMatchesAcrossPoolSizes pins that the pool width is pure
// mechanism: every query in a pooled batch is solved against the same
// batch-start disk table and written back in the same order, so the
// response times are bit-identical whatever the member count.
func TestBatchPoolMatchesAcrossPoolSizes(t *testing.T) {
	var want []cost.Micros
	for _, p := range []int{2, 3, 8} {
		s, qs := poolTestServer(t, 12, 17, Options{Workers: 1, Batch: 16, BatchParallelism: p})
		w := s.workers[0]
		if len(w.pool) != p {
			t.Fatalf("pool size %d, want %d", len(w.pool), p)
		}
		if err := w.serveBatch(qs); err != nil {
			t.Fatalf("pool=%d: %v", p, err)
		}
		got := make([]cost.Micros, len(qs))
		for i, r := range s.results {
			if r.Seq != i || r.ResponseTime <= 0 {
				t.Fatalf("pool=%d: query %d result %+v", p, i, r)
			}
			got[i] = r.ResponseTime
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pool=%d: query %d response %v, pool=2 got %v", p, i, got[i], want[i])
			}
		}
	}
}

// TestBatchPoolOnScheduleOrdering pins phase C's contract: the schedule
// hook fires serially, in exact batch order, with a schedule that is
// valid for the problem it is handed — even though the solves themselves
// ran concurrently.
func TestBatchPoolOnScheduleOrdering(t *testing.T) {
	var seen []int
	var hookErrs []string
	opt := Options{
		Workers: 1, Batch: 16, BatchParallelism: 4,
		OnSchedule: func(worker int, q *Query, p *retrieval.Problem, sch *retrieval.Schedule) {
			// Phase C is serial, so no lock is needed; appending from two
			// goroutines would be caught by the race detector.
			seen = append(seen, q.Seq)
			if err := p.ValidateSchedule(sch); err != nil {
				hookErrs = append(hookErrs, err.Error())
			}
		},
	}
	s, qs := poolTestServer(t, 10, 23, opt)
	if err := s.workers[0].serveBatch(qs); err != nil {
		t.Fatal(err)
	}
	for _, e := range hookErrs {
		t.Errorf("invalid schedule: %s", e)
	}
	if len(seen) != len(qs) {
		t.Fatalf("hook fired %d times for %d queries", len(seen), len(qs))
	}
	if !sort.IntsAreSorted(seen) {
		t.Fatalf("hook order %v not the batch order", seen)
	}
}

// TestBatchPoolSharedCache pins a pooled batch of two recurring replica
// structures, solved concurrently against the batch-shared disk table:
// every query is served, and each is its own solver call.
func TestBatchPoolSharedCache(t *testing.T) {
	s, qs := poolTestServer(t, 12, 31, Options{Workers: 1, Batch: 32, BatchParallelism: 4})
	for i := range qs {
		qs[i].Replicas = qs[i%2].Replicas // two recurring shapes across the batch
	}
	if err := s.workers[0].serveBatch(qs); err != nil {
		t.Fatal(err)
	}
	for i, r := range s.results {
		if r.Seq != i || r.ResponseTime <= 0 {
			t.Fatalf("query %d result %+v", i, r)
		}
	}
	if st := s.SolveStats(); st.Solves != int64(len(qs)) {
		t.Fatalf("%d solves for %d queries", st.Solves, len(qs))
	}
}

// TestBatchPoolServesEveryQuery is the end-to-end (public API) coverage
// check with the pool enabled on every worker.
func TestBatchPoolServesEveryQuery(t *testing.T) {
	sys, stream := testStream(t, 80, 3)
	var mu sync.Mutex
	scheduled := make([]int, len(stream))
	var hookErrs []string
	opt := Options{
		Workers: 2, Batch: 8, BatchParallelism: 2,
		OnSchedule: func(worker int, q *Query, p *retrieval.Problem, sch *retrieval.Schedule) {
			err := p.ValidateSchedule(sch)
			mu.Lock()
			defer mu.Unlock()
			scheduled[q.Seq]++
			if err != nil {
				hookErrs = append(hookErrs, err.Error())
			}
		},
	}
	results, err := Serve(context.Background(), sys, toServeQueries(stream), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range hookErrs {
		t.Errorf("invalid schedule: %s", e)
	}
	for i, r := range results {
		if scheduled[i] != 1 {
			t.Fatalf("query %d scheduled %d times", i, scheduled[i])
		}
		if r.ResponseTime <= 0 || r.ResponseTime == cost.Max {
			t.Fatalf("query %d response %v", i, r.ResponseTime)
		}
	}
}

// TestBatchPoolSolverErrorPropagates routes a poisoned query through the
// pooled path and checks the member's error surfaces from Wait.
func TestBatchPoolSolverErrorPropagates(t *testing.T) {
	s, qs := poolTestServer(t, 8, 41, Options{Workers: 1, Batch: 16, BatchParallelism: 3})
	qs[5].Replicas = [][]int{{}} // fails Problem.Validate inside the solver
	err := s.workers[0].serveBatch(qs)
	if err == nil {
		t.Fatal("solver error did not surface from the pool")
	}
}

// TestBatchPoolFaultStaysSerial pins the dispatch rule: once fault
// injection is live, batches bypass the pool (the in-place failover
// repair is sequential), and serving still completes.
func TestBatchPoolFaultStaysSerial(t *testing.T) {
	sys, stream := testStream(t, 30, 9)
	s, err := New(sys, len(stream), Options{Workers: 1, Batch: 8, BatchParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	if err := s.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	for _, q := range toServeQueries(stream) {
		if err := s.Submit(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	results, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Rejected {
			continue
		}
		if r.Seq != i || r.ResponseTime <= 0 {
			t.Fatalf("query %d result %+v", i, r)
		}
	}
}

// TestBatchPoolOptionValidation covers normalization and the
// deterministic-mode rejection.
func TestBatchPoolOptionValidation(t *testing.T) {
	sys, stream := testStream(t, 4, 2)
	if _, err := New(sys, len(stream), Options{Deterministic: true, BatchParallelism: 2}); err == nil {
		t.Error("deterministic batch pool accepted")
	}
	if _, err := New(sys, len(stream), Options{Deterministic: true, BatchParallelism: -1}); err == nil {
		t.Error("deterministic auto-width batch pool accepted")
	}
	if _, err := New(sys, len(stream), Options{Deterministic: true, BatchParallelism: 1}); err != nil {
		t.Errorf("deterministic serial batch width rejected: %v", err)
	}
	s, err := New(sys, len(stream), Options{BatchParallelism: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.opt.BatchParallelism, threads.Normalize(-1); got != want {
		t.Errorf("auto width normalized to %d, want %d", got, want)
	}
	s, err = New(sys, len(stream), Options{BatchParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.workers[0].pool) != 0 {
		t.Error("serial width built a pool")
	}
}
