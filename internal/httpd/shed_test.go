package httpd

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// answered sums every outcome class the front end counts. Every request
// refused before dispatch and every dispatched query lands in exactly one
// class, so after the last answer it equals Stats.Requests, and the
// number of dispatch calls when a test drives dispatch directly.
func answered(st Stats) int64 {
	return st.Served + st.BadRequest + st.RateLimited + st.Backpressure + st.ShedRejected +
		st.Unavailable + st.Deadline + st.ClientGone
}

// reconciled fails the test unless every request received has been
// counted in exactly one outcome class.
func reconciled(t *testing.T, s *Server) {
	t.Helper()
	if st := s.Stats(); st.Requests != answered(st) {
		t.Fatalf("requests %d, outcomes %d: %+v", st.Requests, answered(st), st)
	}
}

// TestShedOverloadReconciles drives reject-new shedding through a steady
// phase that must not shed and a flash crowd far past the admission
// window. Every request must get an HTTP answer, the crowd must still be
// served, and the counters must reconcile: requests equal served plus
// every reject class. Shedding itself is likely but not required here;
// TestShedRejectNewWhenWindowFull and TestAdmitterRejectNew pin that path.
func TestShedOverloadReconciles(t *testing.T) {
	t.Run("reject-new", func(t *testing.T) {
		s, hs := newFrontend(t, Options{MaxInflight: 4})

		// Steady: two closed-loop clients, well inside the window.
		statuses := fire(hs.URL, 2, 50, func(c, i int) string {
			return fmt.Sprintf(`{"buckets":[%d,%d,%d]}`, (c+i)%36, (c+i+7)%36, (c+i+14)%36)
		})
		for st, n := range statuses {
			if st != http.StatusOK {
				t.Fatalf("steady phase: %d answers with status %d, want only 200", n, st)
			}
		}
		if st := s.Stats(); st.ShedRejected != 0 {
			t.Fatalf("steady phase shed %d requests", st.ShedRejected)
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
		reconciled(t, s)
		slotsRestored(t, s)
	})
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
