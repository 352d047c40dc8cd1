package httpd

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestShedEvictionCountedByVictim pins where an eviction is counted: by
// the victim, when it answers 503, not by the newcomer that evicted it.
// A victim whose result wins the race answers 200 and counts as served,
// so counting at the evicting side would tally one request twice.
func TestShedEvictionCountedByVictim(t *testing.T) {
	s, _ := newFrontend(t, Options{MaxInflight: 1, Policy: DropLatestDeadline})

	// The victim: an out-of-band entry with no deadline, the most
	// patient admissible request, filling the whole window.
	vctx, vcancel := context.WithCancelCause(context.Background())
	defer vcancel(nil)
	id, ok := s.adm.acquire(time.Time{}, vcancel, false)
	if !ok {
		t.Fatal("setup: could not fill the window")
	}
	defer s.adm.release(id)

	o := s.dispatch(context.Background(), QueryRequest{Buckets: []int{1}, DeadlineMs: 2000}, s.pickShard())
	if o.status != http.StatusOK {
		t.Fatalf("urgent newcomer: %d %q, want 200", o.status, o.msg)
	}
	if context.Cause(vctx) != errEvicted {
		t.Fatalf("victim cause %v, want errEvicted", context.Cause(vctx))
	}
	if got := s.Stats().ShedEvicted; got != 0 {
		t.Fatalf("shed_evicted %d before the victim answered, want 0", got)
	}

	if vo := s.interrupted(vctx); vo.status != http.StatusServiceUnavailable {
		t.Fatalf("victim answered %d %q, want 503", vo.status, vo.msg)
	}
	if got := s.Stats().ShedEvicted; got != 1 {
		t.Fatalf("shed_evicted %d after the victim answered, want 1", got)
	}
}

// TestShedOverloadReconciles drives each shed policy through a steady
// phase that must not shed and a flash crowd far past the admission
// window. Every request must get an HTTP answer, the crowd must still be
// served, and the counters must reconcile: requests equal served plus
// every reject class. Shedding itself is likely but not required here;
// TestShedRejectNewWhenWindowFull and the admitter tests pin that path.
func TestShedOverloadReconciles(t *testing.T) {
	for _, policy := range []Policy{RejectNew, DropLatestDeadline} {
		t.Run(policy.String(), func(t *testing.T) {
			s, hs := newFrontend(t, Options{MaxInflight: 4, Policy: policy})

			// Steady: two closed-loop clients, well inside the window.
			statuses := fire(hs.URL, 2, 50, func(c, i int) string {
				return fmt.Sprintf(`{"buckets":[%d,%d,%d]}`, (c+i)%36, (c+i+7)%36, (c+i+14)%36)
			})
			for st, n := range statuses {
				if st != http.StatusOK {
					t.Fatalf("steady phase: %d answers with status %d, want only 200", n, st)
				}
			}
			if st := s.Stats(); st.ShedRejected+st.ShedEvicted != 0 {
				t.Fatalf("steady phase shed: rejected %d, evicted %d", st.ShedRejected, st.ShedEvicted)
			}

			// Overload: 64 clients released at once, 5 queries each, with
			// deadlines spread over 200-1000 ms.
			statuses = fire(hs.URL, 64, 5, func(c, i int) string {
				return fmt.Sprintf(`{"buckets":[%d,%d,%d],"deadline_ms":%d}`,
					c%36, (c+i+5)%36, (c+2*i+11)%36, 200+(c*37+i*101)%801)
			})
			for st, n := range statuses {
				switch st {
				case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				default:
					t.Errorf("overload phase: %d answers with status %d", n, st)
				}
			}
			if statuses[http.StatusOK] == 0 {
				t.Fatalf("overload phase served nothing: %v", statuses)
			}

			st := s.Stats()
			outcomes := st.Served + st.BadRequest + st.RateLimited + st.Backpressure + st.ShedRejected +
				st.ShedEvicted + st.Unavailable + st.Deadline + st.ClientGone
			if st.Requests != outcomes {
				t.Fatalf("requests %d, outcomes %d: %+v", st.Requests, outcomes, st)
			}
			slotsRestored(t, s)
		})
	}
}

// fire releases clients goroutines at once, each posting perClient
// queries to /v1/query one after another, and tallies the statuses. A
// transport error counts as status 0. Each client keeps its connection
// alive, so repeated runs do not pile up closed sockets.
func fire(url string, clients, perClient int, body func(client, i int) string) map[int]int {
	var (
		mu       sync.Mutex
		statuses = map[int]int{}
		wg       sync.WaitGroup
	)
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < perClient; i++ {
				status := 0
				resp, err := hc.Post(url+"/v1/query", "application/json", strings.NewReader(body(c, i)))
				if err == nil {
					status = resp.StatusCode
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				mu.Lock()
				statuses[status]++
				mu.Unlock()
			}
		}(c)
	}
	close(start)
	wg.Wait()
	return statuses
}
