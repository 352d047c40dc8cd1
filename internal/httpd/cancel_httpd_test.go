package httpd

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imflow/internal/decluster"
	"imflow/internal/grid"
	"imflow/internal/storage"
	"imflow/internal/xrand"
)

// slotsRestored polls until every admission slot and sequence number is
// back in the pool (reapers release asynchronously).
func slotsRestored(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.adm.depth() == 0 && len(s.seqFree) == cap(s.seqFree) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slots leaked: inflight %d, seq free %d of %d",
				s.adm.depth(), len(s.seqFree), cap(s.seqFree))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientDisconnectReleasesSlot covers the abandonment path: a
// client whose context dies mid-dispatch must not leak the admission
// slot or the sequence number, whichever side of the serve pickup the
// cancellation lands on.
func TestClientDisconnectReleasesSlot(t *testing.T) {
	s, _ := newFrontend(t, Options{})

	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan outcome, 1)
		go func() {
			done <- s.dispatch(ctx, QueryRequest{Buckets: []int{i % 36}}, s.pickShard())
		}()
		if i%2 == 0 {
			cancel() // race the dispatch from the very start
		} else {
			time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
			cancel()
		}
		o := <-done
		// Served-before-cancel and abandoned are both legal; a hang or
		// a leak is not.
		if o.status != http.StatusOK && o.status != 0 {
			t.Fatalf("iteration %d: unexpected outcome %d %q", i, o.status, o.msg)
		}
	}
	slotsRestored(t, s)
}

// TestClientDisconnectOverHTTP drives the same path through a real
// connection: the client aborts mid-request, the server must account a
// client-gone (or a completed serve, if it won the race) and restore
// every slot.
func TestClientDisconnectOverHTTP(t *testing.T) {
	s, hs := newFrontend(t, Options{})

	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(50+i*50)*time.Microsecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/query",
			strings.NewReader(`{"buckets":[5,11]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		cancel()
	}
	slotsRestored(t, s)
}

// TestSubmitCancelShutdownStressHTTP races dispatchers, cancellations,
// and a shutdown under -race: every dispatch must be counted in exactly
// one outcome class and the shutdown must win in bounded time.
func TestSubmitCancelShutdownStressHTTP(t *testing.T) {
	sys := storage.Uniform(2, 6, storage.Cheetah)
	alloc := decluster.Orthogonal(grid.New(6))
	s, err := New(sys, alloc, Options{MaxInflight: 32})
	if err != nil {
		t.Fatal(err)
	}

	var dispatched atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(g + 1))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithCancel(context.Background())
				qr := QueryRequest{Buckets: []int{rng.Intn(36)}}
				if rng.Bool() {
					qr.DeadlineMs = int64(1 + rng.Intn(50))
				}
				done := make(chan struct{})
				dispatched.Add(1)
				go func() {
					s.dispatch(ctx, qr, s.pickShard())
					close(done)
				}()
				if rng.Intn(3) == 0 {
					cancel()
				}
				select {
				case <-done:
				case <-time.After(2 * time.Second):
					t.Error("dispatch hung")
					cancel()
					return
				}
				cancel()
			}
		}(g)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after stress: %v", err)
	}
	st := s.Stats()
	if st.Served == 0 {
		t.Fatal("stress served nothing; the workload never reached the backend")
	}
	if n := dispatched.Load(); answered(st) != n {
		t.Fatalf("%d dispatch calls, %d outcomes: %+v", n, answered(st), st)
	}
}
