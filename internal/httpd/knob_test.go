package httpd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imflow/internal/retrieval"
	"imflow/internal/serve"
)

// The TestKnob* tests are the rows of the overload knob table (DESIGN.md
// §15): each shows what one httpd.Options or serve.Options knob changes,
// or what a deleted knob changed, in a scenario run end to end over HTTP.

// postAsync posts body to url on its own goroutine and delivers the
// answer on the returned channel.
func postAsync(url, body string, hdr map[string]string) <-chan answer {
	c := make(chan answer, 1)
	go func() { c <- send(url, body, hdr) }()
	return c
}

// stall parks every serve worker in OnSchedule, after its solve, until
// release is called. A parked query keeps its window and sequence slots,
// and the queries behind it wait in the shard queue.
type stall struct {
	gate   chan struct{}
	once   sync.Once
	parked atomic.Int64 // OnSchedule calls that reached the gate
}

func (st *stall) hook(int, *serve.Query, *retrieval.Problem, *retrieval.Schedule) {
	st.parked.Add(1)
	<-st.gate
}

func (st *stall) release() { st.once.Do(func() { close(st.gate) }) }

// newStalledFrontend is newFrontend with its workers parked by a stall.
// The test's cleanup releases them before it shuts the server down.
func newStalledFrontend(t *testing.T, opt Options) (*Server, *httptest.Server, *stall) {
	t.Helper()
	st := &stall{gate: make(chan struct{})}
	opt.Serve.OnSchedule = st.hook
	s, hs := newFrontend(t, opt)
	t.Cleanup(st.release)
	return s, hs, st
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// queued is the summed shard queue depth.
func queued(s *Server) int {
	total := 0
	for _, d := range s.srv.QueueDepths(nil) {
		total += d
	}
	return total
}

// TestKnobRateLimitSparesModestClient is the row of RatePerSec and
// RateBurst: fairness between clients. With the workers parked, a greedy
// client with a stable id fires 8 queries at once at a window of 4. The
// rate limit admits its burst of 2 and answers the rest 429 before
// admission, so a modest client's one query still finds a window slot and
// is served. With no rate limit the greedy client fills the window and
// the modest query is shed; with the default burst of 1 the greedy
// client is served once, not twice.
func TestKnobRateLimitSparesModestClient(t *testing.T) {
	const window, greedy, burst = 4, 8, 2
	s, hs, st := newStalledFrontend(t, Options{MaxInflight: window, RatePerSec: 0.001, RateBurst: burst})
	url := hs.URL + "/v1/query"
	// settled counts the queries refused before or at admission plus
	// those holding a window slot.
	settled := func() int64 {
		stats := s.Stats()
		return stats.RateLimited + stats.ShedRejected + int64(s.adm.depth())
	}

	var greedyAnswers []<-chan answer
	for i := 0; i < greedy; i++ {
		greedyAnswers = append(greedyAnswers, postAsync(url, `{"buckets":[1,7]}`, map[string]string{"X-Client-ID": "greedy"}))
	}
	waitFor(t, "the greedy queries to settle", func() bool { return settled() == greedy })
	modest := postAsync(url, `{"buckets":[2,8]}`, map[string]string{"X-Client-ID": "modest"})
	waitFor(t, "the modest query to settle", func() bool { return settled() == greedy+1 })
	st.release()

	if a := <-modest; a.status != http.StatusOK {
		t.Fatalf("modest client answered %d %s, want 200", a.status, a.body)
	}
	served := 0
	for _, c := range greedyAnswers {
		switch a := <-c; a.status {
		case http.StatusOK:
			served++
		case http.StatusTooManyRequests:
		default:
			t.Fatalf("greedy client answered %d %s, want 200 or 429", a.status, a.body)
		}
	}
	if served != burst {
		t.Fatalf("greedy client served %d of %d queries, want its burst of %d", served, greedy, burst)
	}
	reconciled(t, s)
}

// TestKnobWindowBoundsQueueDepth is the row of MaxInflight, and the
// reason the queue-depth shed trigger went: every queued query holds a
// window slot (or, once its client has gone, a sequence slot, of which
// there are twice the window), so the window alone bounds the summed
// shard queue depth. A flash crowd of 32 clients at a window of 4, with
// every solve slowed by a millisecond, must never show more than 4
// queries queued; at the default window of 256 the same crowd queues
// most of its 32.
func TestKnobWindowBoundsQueueDepth(t *testing.T) {
	const window = 4
	s, hs := newFrontend(t, Options{MaxInflight: window, Serve: serve.Options{
		OnSchedule: func(int, *serve.Query, *retrieval.Problem, *retrieval.Schedule) { time.Sleep(time.Millisecond) },
	}})

	stop, sampled := make(chan struct{}), make(chan int)
	go func() {
		peak := 0
		for {
			select {
			case <-stop:
				sampled <- peak
				return
			default:
			}
			peak = max(peak, queued(s))
			time.Sleep(50 * time.Microsecond)
		}
	}()
	statuses := fire(hs.URL, 32, 5, func(c, i int) string {
		return fmt.Sprintf(`{"buckets":[%d,%d,%d]}`, c%36, (c+i+5)%36, (c+2*i+11)%36)
	})
	close(stop)
	peak := <-sampled

	if peak > window {
		t.Fatalf("summed queue depth reached %d with a window of %d", peak, window)
	}
	if statuses[http.StatusOK] == 0 {
		t.Fatalf("the crowd was never served: %v", statuses)
	}
	reconciled(t, s)
	slotsRestored(t, s)
}

// TestKnobServesAfterSlowSpell is the row that deleted ShedP99, the
// trigger that shed every request while the served p99 sat above it.
// Solves are slowed to 30 ms for 8 clients x 10 queries, then made fast
// again: every later request must be served. With ShedP99 at 20 ms the
// trigger tripped within the spell and latched, because a shed request
// never enters the latency window the trigger read, so nothing served
// could bring the p99 back down, and every later request answered 503.
func TestKnobServesAfterSlowSpell(t *testing.T) {
	var slow atomic.Bool
	slow.Store(true)
	s, hs := newFrontend(t, Options{Serve: serve.Options{Workers: 4,
		OnSchedule: func(int, *serve.Query, *retrieval.Problem, *retrieval.Schedule) {
			if slow.Load() {
				time.Sleep(30 * time.Millisecond)
			}
		},
	}})
	body := func(c, i int) string { return fmt.Sprintf(`{"buckets":[%d,%d]}`, (c+i)%36, (c+2*i+5)%36) }

	if spell := fire(hs.URL, 8, 10, body); spell[http.StatusOK] == 0 {
		t.Fatalf("the slow spell served nothing: %v", spell)
	}
	slow.Store(false)
	if after := fire(hs.URL, 4, 25, body); after[http.StatusOK] != 100 {
		t.Fatalf("after the slow spell: %v, want 100 answers 200", after)
	}
	reconciled(t, s)
}

// TestKnobClientBudgetExpiresInQueue is the row that deleted
// DefaultDeadline: a client that wants its query to give up states its
// own budget, in deadline_ms or X-Deadline-Ms, and that budget runs the
// code a server-wide default ran. With the one worker parked, a query
// budgeted at 20 ms and one with no budget wait 60 ms in the queue: the
// first answers 504, the second 200. With DefaultDeadline at 20 ms the
// second answered 504 too.
func TestKnobClientBudgetExpiresInQueue(t *testing.T) {
	s, hs, st := newStalledFrontend(t, Options{Serve: serve.Options{Workers: 1}})
	url := hs.URL + "/v1/query"
	plug := postAsync(url, `{"buckets":[0]}`, nil)
	waitFor(t, "the worker to park", func() bool { return st.parked.Load() == 1 })
	budgeted := postAsync(url, `{"buckets":[1]}`, map[string]string{"X-Deadline-Ms": "20"})
	unbudgeted := postAsync(url, `{"buckets":[2]}`, nil)
	waitFor(t, "both queries to queue", func() bool { return queued(s) == 2 })
	time.Sleep(60 * time.Millisecond)
	st.release()

	for _, c := range []struct {
		name string
		ans  <-chan answer
		want int
	}{{"first query", plug, http.StatusOK}, {"budgeted query", budgeted, http.StatusGatewayTimeout},
		{"unbudgeted query", unbudgeted, http.StatusOK}} {
		if a := <-c.ans; a.status != c.want {
			t.Errorf("%s answered %d %s, want %d", c.name, a.status, a.body, c.want)
		}
	}
	reconciled(t, s)
}

// TestKnobAdmitTimeoutBackpressure is the row that made AdmitTimeout the
// constant admitTimeout, since no caller set it. The path it times
// stays: with the one worker parked and its depth-1 queue full, a third
// query waits admitTimeout for room and answers 429 with Retry-After.
func TestKnobAdmitTimeoutBackpressure(t *testing.T) {
	s, hs, st := newStalledFrontend(t, Options{Serve: serve.Options{Workers: 1, QueueDepth: 1}})
	url := hs.URL + "/v1/query"
	plug := postAsync(url, `{"buckets":[0]}`, nil)
	waitFor(t, "the worker to park", func() bool { return st.parked.Load() == 1 })
	waiting := postAsync(url, `{"buckets":[1]}`, nil)
	waitFor(t, "the queue to fill", func() bool { return queued(s) == 1 })

	start := time.Now()
	var a answer
	select {
	case a = <-postAsync(url, `{"buckets":[2]}`, nil):
	case <-time.After(5 * time.Second):
		t.Fatal("no answer within 5 s from a full queue")
	}
	if waited := time.Since(start); a.status != http.StatusTooManyRequests || a.header.Get("Retry-After") == "" || waited < admitTimeout {
		t.Fatalf("full queue answered %d %s (Retry-After %q) after %v, want 429 with Retry-After after at least %v",
			a.status, a.body, a.header.Get("Retry-After"), waited, admitTimeout)
	}
	st.release()
	for _, c := range []<-chan answer{plug, waiting} {
		if a := <-c; a.status != http.StatusOK {
			t.Fatalf("admitted query answered %d %s, want 200", a.status, a.body)
		}
	}
	if got := s.Stats().Backpressure; got != 1 {
		t.Fatalf("backpressure counter %d, want 1", got)
	}
	reconciled(t, s)
}

// TestKnobBatchCoalescesEnvelope is serve.Options.Batch's row: a
// /v1/submit envelope goes to one shard, whose worker coalesces up to
// Batch queued queries into one admission batch with one load snapshot
// and one write-back, which is how batch-hot-n20 serves its envelopes of
// 16. The items of one batch share its model start, their finish less
// their response time. With the one worker parked, an envelope of 16
// queues whole; at Batch 4 it is then served in 4 batches, where the
// default Batch of 16 serves it in one.
func TestKnobBatchCoalescesEnvelope(t *testing.T) {
	const items, batch = 16, 4
	s, hs, st := newStalledFrontend(t, Options{Serve: serve.Options{Workers: 1, Batch: batch}})
	plug := postAsync(hs.URL+"/v1/query", `{"buckets":[0]}`, nil)
	waitFor(t, "the worker to park", func() bool { return st.parked.Load() == 1 })
	qs := make([]string, items)
	for i := range qs {
		qs[i] = fmt.Sprintf(`{"buckets":[%d,%d]}`, i, (i+18)%36)
	}
	envelope := postAsync(hs.URL+"/v1/submit", `{"queries":[`+strings.Join(qs, ",")+`]}`, nil)
	waitFor(t, "the envelope to queue", func() bool { return queued(s) == items })
	st.release()

	if a := <-plug; a.status != http.StatusOK {
		t.Fatalf("first query answered %d %s, want 200", a.status, a.body)
	}
	a := <-envelope
	var sr SubmitResponse
	if err := json.Unmarshal(a.body, &sr); a.status != http.StatusOK || err != nil || len(sr.Results) != items {
		t.Fatalf("envelope answered %d %s (%v), want 200 with %d results", a.status, a.body, err, items)
	}
	starts := map[int64]int{}
	for i, it := range sr.Results {
		if it.Status != http.StatusOK || it.Query == nil {
			t.Fatalf("item %d: %+v, want 200", i, it)
		}
		starts[it.Query.FinishUs-it.Query.ResponseTimeUs]++
	}
	if len(starts) != items/batch {
		t.Fatalf("envelope of %d served in %d batches %v, want %d", items, len(starts), starts, items/batch)
	}
	reconciled(t, s)
}
