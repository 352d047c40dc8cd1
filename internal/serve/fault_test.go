package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"imflow/internal/cost"
	"imflow/internal/fault"
	"imflow/internal/retrieval"
	"imflow/internal/sim"
)

// chaosFor draws a dense chaos schedule over the test system's disks,
// spanning the arrival range of testStream workloads.
func chaosFor(t *testing.T, disks int, seed uint64) *fault.Schedule {
	t.Helper()
	sched, err := fault.Spec{
		NumDisks: disks,
		Horizon:  cost.FromMillis(250),
		Seed:     seed,
		MTBF:     cost.FromMillis(10),
		MTTR:     cost.FromMillis(15),
		SlowMTBF: cost.FromMillis(8),
		SlowMTTR: cost.FromMillis(6),
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) == 0 {
		t.Fatal("chaos spec generated no events")
	}
	return sched
}

// TestDeterministicChaosMatchesSim: one chaos schedule, two harnesses.
// The deterministic server replaying a stream under fault injection must
// produce response times, finishes, and dropped-bucket counts
// bit-identical to the simulator replaying the same stream with the same
// schedule — the serving layer's failure semantics are the model's, not
// an approximation.
func TestDeterministicChaosMatchesSim(t *testing.T) {
	sys, stream := testStream(t, 60, 31)
	sched := chaosFor(t, sys.NumDisks(), 5)

	simulator := sim.New(sys, sim.FailoverScheduler{Solver: retrieval.NewPRBinary()})
	if err := simulator.SetFault(fault.NewState(sched)); err != nil {
		t.Fatal(err)
	}
	want, err := simulator.Run(append([]sim.Query(nil), stream...))
	if err != nil {
		t.Fatal(err)
	}

	got, err := Serve(context.Background(), sys, toServeQueries(stream), Options{
		Deterministic: true, Batch: 8, Fault: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].ResponseTime != want[i].ResponseTime || got[i].Finish != want[i].Finish {
			t.Fatalf("query %d: serve (%v,%v), sim (%v,%v)", i,
				got[i].ResponseTime, got[i].Finish, want[i].ResponseTime, want[i].Finish)
		}
		if got[i].Dropped != len(want[i].Dropped) {
			t.Fatalf("query %d: serve dropped %d, sim dropped %d", i, got[i].Dropped, len(want[i].Dropped))
		}
	}
}

// TestEmptyChaosScheduleBitIdentical: arming fault injection with an
// empty schedule must not change a single deterministic response, and in
// the online mode must neither drop nor reject nor count degradation.
func TestEmptyChaosScheduleBitIdentical(t *testing.T) {
	sys, stream := testStream(t, 40, 13)
	qs := toServeQueries(stream)
	empty := &fault.Schedule{NumDisks: sys.NumDisks()}

	want, err := Serve(context.Background(), sys, qs, Options{Deterministic: true, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Serve(context.Background(), sys, qs, Options{Deterministic: true, Batch: 8, Fault: empty})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].ResponseTime != want[i].ResponseTime || got[i].Finish != want[i].Finish ||
			got[i].Dropped != 0 || got[i].Rejected {
			t.Fatalf("query %d diverged under empty chaos: %+v vs %+v", i, got[i], want[i])
		}
	}

	// Online mode: wall-clock responses are not comparable across runs,
	// but an empty schedule must leave every degradation counter at zero.
	s, err := New(sys, len(qs), Options{Workers: 2, Batch: 4, Fault: empty})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	for _, q := range qs {
		if err := s.Submit(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	results, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Rejected || r.Dropped != 0 || r.ResponseTime <= 0 {
			t.Fatalf("query %d degraded under empty chaos: %+v", i, r)
		}
	}
	if fs := s.FaultStats(); fs != (FaultStats{}) {
		t.Fatalf("empty chaos moved the fault counters: %+v", fs)
	}
}

// TestDrainOnCancel: cancelling the Start context mid-stream must release
// blocked submitters (drain-on-cancel propagates like drain-on-failure)
// and surface the cancellation from Wait.
func TestDrainOnCancel(t *testing.T) {
	sys, stream := testStream(t, 64, 7)
	qs := toServeQueries(stream)
	ctx, cancel := context.WithCancel(context.Background())
	s, err := New(sys, len(qs), Options{Workers: 1, QueueDepth: 1, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, q := range qs {
			// Each query is either admitted (and possibly drained
			// unserved) or bounced by the cancelled context — never stuck.
			if err := s.Submit(ctx, q); err != nil {
				return
			}
		}
	}()
	cancel()
	wg.Wait() // must terminate: cancellation unblocks the submitter
	// Wait for the cancel watcher to flip the server before draining, so
	// Wait deterministically reports the cause.
	for !s.failed.Load() {
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := s.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after cancel: %v", err)
	}
}

// TestAdmissionDeadline covers both deadline stages: Submit refuses to
// block past the query's deadline on a full queue, and a worker rejects a
// query whose deadline lapsed while it sat in the shard queue.
func TestAdmissionDeadline(t *testing.T) {
	sys, stream := testStream(t, 8, 9)
	qs := toServeQueries(stream)

	release := make(chan struct{})
	s, err := New(sys, len(qs), Options{
		Workers: 1, QueueDepth: 1, Batch: 1,
		OnSchedule: func(int, *Query, *retrieval.Problem, *retrieval.Schedule) {
			<-release // stall the worker on its first served query
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())

	// Query 0 (met deadline): picked up immediately, stalls in the hook.
	q0 := qs[0]
	q0.Deadline = time.Hour
	if err := s.Submit(context.Background(), q0); err != nil {
		t.Fatal(err)
	}
	// Query 1 fills the depth-1 queue; its deadline burns while the
	// worker is stalled, so the worker must reject it at pickup.
	q1 := qs[1]
	q1.Deadline = 50 * time.Millisecond
	if err := s.Submit(context.Background(), q1); err != nil {
		t.Fatal(err)
	}
	// The queue is full and the worker is stalled: a short-deadline query
	// must be bounced by Submit itself rather than blocking forever.
	q2 := qs[2]
	q2.Deadline = 10 * time.Millisecond
	if err := s.Submit(context.Background(), q2); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Submit on a full queue: %v, want ErrDeadlineExceeded", err)
	}
	time.Sleep(100 * time.Millisecond) // burn q1's queue deadline well past its 50ms
	close(release)
	results, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if results[q0.Seq].Rejected || results[q0.Seq].ResponseTime <= 0 {
		t.Fatalf("met-deadline query was not served: %+v", results[q0.Seq])
	}
	if !results[q1.Seq].Rejected {
		t.Fatalf("burned-deadline query was served: %+v", results[q1.Seq])
	}
	if fs := s.FaultStats(); fs.Rejected < 2 {
		t.Fatalf("rejections not counted: %+v", fs)
	}
}

// busiestDisk returns the disk sch routes the most blocks through, or -1
// when it routes none.
func busiestDisk(sch *retrieval.Schedule) int {
	best, most := -1, int64(0)
	for d, k := range sch.Counts {
		if k > most {
			best, most = d, k
		}
	}
	return best
}

// repairErrs checks a schedule written back after in-place repairs: it
// routes no block through a failed disk, and it is a valid partial
// schedule whose unassigned buckets are the dropped ones.
func repairErrs(p *retrieval.Problem, sch *retrieval.Schedule, failed []int) []string {
	var errs []string
	for _, d := range failed {
		if sch.Counts[d] > 0 {
			errs = append(errs, fmt.Sprintf("schedule routes %d blocks through failed disk %d", sch.Counts[d], d))
		}
	}
	var dead []int
	for b, d := range sch.Assignment {
		if d < 0 {
			dead = append(dead, b)
		}
	}
	if err := p.ValidatePartialSchedule(sch, dead); err != nil {
		errs = append(errs, err.Error())
	}
	return errs
}

// TestFailoverBetweenSnapshotAndMerge injects a disk failure in exactly
// the window the online mode is vulnerable to — after a worker solved
// against its health snapshot, before the write-back — and requires the
// worker to repair the schedule in place via the conserved-flow failover
// (MarkFailed), rerouting every block off the failed disk.
func TestFailoverBetweenSnapshotAndMerge(t *testing.T) {
	sys, stream := testStream(t, 24, 21)
	qs := toServeQueries(stream)

	var mu sync.Mutex
	var hookErrs []string
	var failed []int
	s, err := New(sys, len(qs), Options{
		Workers: 1, Batch: 4,
		// Arm fault mode with an empty schedule; the one event comes from
		// FailDisk inside the injection hook below.
		Fault: &fault.Schedule{NumDisks: sys.NumDisks()},
		OnSchedule: func(worker int, q *Query, p *retrieval.Problem, sch *retrieval.Schedule) {
			mu.Lock()
			defer mu.Unlock()
			hookErrs = append(hookErrs, repairErrs(p, sch, failed)...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The test hook runs between the solve and each mid-solve-failure
	// check: fail the busiest disk of the just-solved schedule, once.
	s.afterSolve = func(w *worker, q *Query) {
		mu.Lock()
		defer mu.Unlock()
		if len(failed) > 0 {
			return
		}
		best := busiestDisk(w.res.Schedule)
		if best < 0 {
			return
		}
		failed = append(failed, best)
		if err := s.FailDisk(best); err != nil {
			hookErrs = append(hookErrs, err.Error())
		}
	}
	s.Start(context.Background())
	for _, q := range qs {
		if err := s.Submit(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	results, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, e := range hookErrs {
		t.Error(e)
	}
	if len(failed) == 0 {
		t.Fatal("the injection hook never fired")
	}
	repaired := 0
	for _, r := range results {
		repaired += r.Failovers
	}
	if repaired == 0 {
		t.Fatal("no in-place failover repair happened")
	}
	fs := s.FaultStats()
	if fs.Failovers == 0 || fs.Retries == 0 {
		t.Fatalf("counters missed the repair: %+v", fs)
	}
}

// TestFailoverRepairsUntilCurrent fails the busiest scheduled disk before
// each of the first five mid-solve-failure checks of one wide query. The
// worker must keep repairing in place until the schedule is current,
// however many rounds that takes: the query is served, not rejected, and
// its final schedule routes nothing through a failed disk.
func TestFailoverRepairsUntilCurrent(t *testing.T) {
	const rounds = 5
	sys, stream := testStream(t, 64, 21)
	widest := stream[0]
	for _, q := range stream[1:] {
		if len(q.Replicas) > len(widest.Replicas) {
			widest = q
		}
	}

	// Both hooks run on the single worker goroutine, and Wait orders them
	// before the checks below.
	var failed []int
	var hookErrs []string
	schedules := 0
	s, err := New(sys, 1, Options{
		Workers: 1,
		// Arm fault mode with an empty schedule; the failures come from
		// FailDisk inside the injection hook below.
		Fault: &fault.Schedule{NumDisks: sys.NumDisks()},
		OnSchedule: func(_ int, _ *Query, p *retrieval.Problem, sch *retrieval.Schedule) {
			schedules++
			hookErrs = append(hookErrs, repairErrs(p, sch, failed)...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.afterSolve = func(w *worker, _ *Query) {
		if len(failed) == rounds {
			return
		}
		busiest := busiestDisk(w.res.Schedule)
		if busiest < 0 {
			hookErrs = append(hookErrs, "the schedule routes no block")
			return
		}
		failed = append(failed, busiest)
		if err := s.FailDisk(busiest); err != nil {
			hookErrs = append(hookErrs, err.Error())
		}
	}
	s.Start(context.Background())
	if err := s.Submit(context.Background(), Query{Seq: 0, Arrival: widest.Arrival, Replicas: widest.Replicas}); err != nil {
		t.Fatal(err)
	}
	results, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range hookErrs {
		t.Error(e)
	}
	if len(failed) != rounds {
		t.Fatalf("the hook failed %d disks, want %d", len(failed), rounds)
	}
	r := results[0]
	if r.Rejected || (r.ResponseTime <= 0 && r.Dropped != len(widest.Replicas)) {
		t.Fatalf("query not served: %+v", r)
	}
	if r.Failovers != rounds {
		t.Fatalf("query repaired %d times, want %d", r.Failovers, rounds)
	}
	if fs := s.FaultStats(); fs.Retries != rounds || fs.Rejected != 0 {
		t.Fatalf("fault counters %+v, want %d retries and no rejection", fs, rounds)
	}
	if schedules != 1 {
		t.Fatalf("OnSchedule ran %d times, want once", schedules)
	}
}

// TestSlowdownMidBatchWriteBack slows a disk down mid-batch, right after
// the first query that uses it is solved, and checks the write-back: each
// query is charged to the worker's batch-local horizons at the service
// time it was solved with, and the shared horizons must be charged the
// same. A write-back that re-prices the batch's block totals at the
// disk's final service time disagrees with the responses the batch
// already reported.
func TestSlowdownMidBatchWriteBack(t *testing.T) {
	sys, stream := testStream(t, 12, 41)
	qs := toServeQueries(stream)
	s, err := New(sys, len(qs), Options{
		Workers: 1, Batch: len(qs),
		// Arm fault mode with an empty schedule; the slowdown comes from
		// the injection hook below.
		Fault: &fault.Schedule{NumDisks: sys.NumDisks()},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.started = true
	s.start = time.Now()
	slowed := -1
	s.afterSolve = func(w *worker, q *Query) {
		if slowed >= 0 {
			return
		}
		for j, k := range w.res.Schedule.Counts {
			if k > 0 {
				slowed = j
				break
			}
		}
		s.mu.Lock()
		s.slow[slowed] = 4
		s.mu.Unlock()
		s.faultEpoch.Add(1)
	}
	w := s.workers[0]
	if err := w.serveBatch(qs); err != nil {
		t.Fatal(err)
	}
	if slowed < 0 {
		t.Fatal("the injection hook never fired")
	}
	for i, r := range s.results {
		if r.Seq != i || r.Rejected || r.ResponseTime <= 0 {
			t.Fatalf("query %d not served: %+v", i, r)
		}
	}
	for j := range s.busyUntil {
		if s.busyUntil[j] != w.local[j] {
			t.Errorf("disk %d (slowed %d): shared horizon %v, batch-local %v", j, slowed, s.busyUntil[j], w.local[j])
		}
	}
}

// TestWorkerDeathMidBatchDrains kills a worker's solver midway through a
// batch and checks the drain contract: Wait surfaces the death, blocked
// submitters are released, and every query from the death on stays
// unserved (zero-valued).
func TestWorkerDeathMidBatchDrains(t *testing.T) {
	sys, stream := testStream(t, 48, 15)
	qs := toServeQueries(stream)
	const victim = 9
	qs[victim].Replicas = [][]int{{}} // fails Problem.Validate inside the solver mid-batch
	s, err := New(sys, len(qs), Options{Workers: 1, QueueDepth: 2, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	done := make(chan error, 1)
	go func() {
		for _, q := range qs {
			if err := s.Submit(context.Background(), q); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("submitter: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("submitter deadlocked: drain-on-failure did not release the queue")
	}
	results, err := s.Wait()
	if err == nil {
		t.Fatal("worker death did not surface from Wait")
	}
	// Single worker: the failing query aborts its batch, and every later
	// batch is drained unserved.
	for i := victim; i < len(results); i++ {
		if results[i].ResponseTime != 0 || results[i].Rejected {
			t.Fatalf("query %d served after the worker died: %+v", i, results[i])
		}
	}
}

// TestAllReplicasDownPartialServe fails all but one disk of site 0 and
// checks partial retrieval end to end through the server: buckets whose
// replicas all live on failed disks are dropped (counted per query and
// globally), the rest are served, and the degraded counter counts every
// query, with one worker and with several.
func TestAllReplicasDownPartialServe(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sys, stream := testStream(t, 16, 19)
			qs := toServeQueries(stream)
			s, err := New(sys, len(qs), Options{Workers: workers, Batch: 4})
			if err != nil {
				t.Fatal(err)
			}
			// deadOf counts the buckets the mask strands, from the replica lists.
			deadOf := func(q Query) int {
				n := 0
				for _, reps := range q.Replicas {
					alive := false
					for _, d := range reps {
						if d == 0 || d >= sys.DisksPerSite {
							alive = true
							break
						}
					}
					if !alive {
						n++
					}
				}
				return n
			}
			for d := 1; d < sys.DisksPerSite; d++ {
				if err := s.FailDisk(d); err != nil {
					t.Fatal(err)
				}
			}
			s.Start(context.Background())
			for _, q := range qs {
				if err := s.Submit(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}
			results, err := s.Wait()
			if err != nil {
				t.Fatal(err)
			}
			totalDead := 0
			for i, r := range results {
				want := deadOf(qs[i])
				if r.Dropped != want {
					t.Fatalf("query %d: dropped %d buckets, want %d", i, r.Dropped, want)
				}
				totalDead += want
				if r.Rejected {
					t.Fatalf("query %d rejected on a static mask", i)
				}
			}
			fs := s.FaultStats()
			if fs.DroppedBuckets != int64(totalDead) {
				t.Fatalf("dropped-bucket counter %d, want %d", fs.DroppedBuckets, totalDead)
			}
			if fs.DegradedQueries != int64(len(qs)) {
				t.Fatalf("degraded counter %d, want %d", fs.DegradedQueries, len(qs))
			}
		})
	}
}

// TestChaosStress is the fault-injection race probe: several submitters
// and workers under a dense generated chaos schedule plus concurrent
// manual fail/recover. Under -race this exercises the snapshot/epoch
// discipline; with -tags imflow_audit every degraded solve and failover
// re-solve carries a max-flow certificate. The queries carry no deadline
// and no context, so nothing may reject one: a fault never does.
func TestChaosStress(t *testing.T) {
	const submitters = 4
	sys, stream := testStream(t, 120, 37)
	qs := toServeQueries(stream)
	s, err := New(sys, len(qs), Options{
		Workers: 4, Batch: 4, QueueDepth: 8,
		Fault: chaosFor(t, sys.NumDisks(), 77),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	var wg sync.WaitGroup
	for part := 0; part < submitters; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for i := part; i < len(qs); i += submitters {
				if err := s.Submit(context.Background(), qs[i]); err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
			}
		}(part)
	}
	flip := make(chan struct{})
	go func() {
		defer close(flip)
		for i := 0; i < 50; i++ {
			_ = s.FailDisk(i % sys.NumDisks())
			time.Sleep(50 * time.Microsecond)
			_ = s.RecoverDisk(i % sys.NumDisks())
		}
	}()
	wg.Wait()
	<-flip
	results, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		// Served: a positive response, or every bucket dropped.
		if r.Rejected || (r.ResponseTime <= 0 && r.Dropped != len(qs[i].Replicas)) {
			t.Fatalf("query %d not served: %+v", i, r)
		}
	}
}
