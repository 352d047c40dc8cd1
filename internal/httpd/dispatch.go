package httpd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"imflow/internal/serve"
)

// outcome is one query's terminal answer, in transport-neutral form;
// the handlers translate it to a status line and JSON body.
type outcome struct {
	status     int           // HTTP status; 0 means the client is gone and no answer is writable
	msg        string        // error detail for non-200s
	retryAfter time.Duration // Retry-After hint for 429/503
	transient  bool          // retrying the same request later, here or elsewhere, may succeed
	res        serve.Result  // valid when status is 200
	shard      int           // shard that served it (200 only)
	handedOff  bool          // slot ownership moved to a reaper goroutine
}

// errServerStopped distinguishes a front-end stop (serve failure or
// abandoned shutdown) from client-side cancellation.
var errServerStopped = errors.New("httpd: server stopped")

// admitTimeout bounds how long a dispatch may block on a full shard queue
// before answering 429 backpressure; it is also the Retry-After hint of
// a shed answer.
const admitTimeout = 100 * time.Millisecond

// resolveReplicas maps a validated request onto global disk ids, either
// verbatim (raw replica queries) or through the allocation.
func (s *Server) resolveReplicas(qr QueryRequest) ([][]int, error) {
	if len(qr.Replicas) > 0 {
		return qr.Replicas, nil
	}
	if s.alloc == nil {
		return nil, fmt.Errorf("httpd: this server has no allocation; submit raw replicas")
	}
	return s.sys.ReplicaDisks(s.alloc, qr.Buckets), nil
}

// dispatch runs one validated query through the full lifecycle on
// shard: window + sequence slot acquisition, deadline-propagated
// admission, and the terminal wait. qctx is the client's request
// context; its cancellation propagates all the way into the shard queue.
func (s *Server) dispatch(qctx context.Context, qr QueryRequest, shard int) outcome {
	if s.isDraining() {
		// Admitted by beginRequest just before Shutdown flipped: the same
		// answer the handlers give a request that arrives after it.
		s.met.unavailable.Add(1)
		return outcome{status: http.StatusServiceUnavailable, msg: "draining", retryAfter: time.Second, transient: true}
	}
	replicas, err := s.resolveReplicas(qr)
	if err != nil {
		s.met.badRequest.Add(1)
		return outcome{status: http.StatusBadRequest, msg: err.Error()}
	}

	budget := time.Duration(qr.DeadlineMs) * time.Millisecond
	var deadline time.Time // zero = none
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}

	if !s.adm.acquire() {
		s.met.shedRejected.Add(1)
		return outcome{status: http.StatusServiceUnavailable, msg: "overloaded: reject-new",
			retryAfter: admitTimeout, transient: true}
	}

	seq, ok := s.acquireSeq(qctx)
	if !ok {
		s.adm.release()
		return s.interrupted(qctx)
	}
	out := s.attempt(qctx, seq, shard, replicas, deadline)
	if !out.handedOff {
		s.releaseSeq(seq)
	}
	s.adm.release()
	return out
}

// attempt submits the query once to shard over one acquired sequence
// slot and waits for its terminal result. It never blocks indefinitely:
// every wait selects on qctx and the stop switch, and abandoning an
// in-flight query hands the slot to a reaper instead of leaking it.
func (s *Server) attempt(qctx context.Context, seq, shard int, replicas [][]int, deadline time.Time) outcome {
	var budget time.Duration
	if !deadline.IsZero() {
		if budget = time.Until(deadline); budget <= 0 {
			s.met.deadline.Add(1)
			return outcome{status: http.StatusGatewayTimeout, msg: "deadline exceeded"}
		}
	}
	q := serve.Query{Seq: seq, Replicas: replicas, Deadline: budget, Ctx: qctx}
	actx, acancel := context.WithTimeout(qctx, admitTimeout)
	err := s.srv.SubmitTo(actx, shard, q)
	acancel()
	switch {
	case err == nil:
	case errors.Is(err, serve.ErrDeadlineExceeded):
		s.met.deadline.Add(1)
		return outcome{status: http.StatusGatewayTimeout, msg: "deadline exceeded before admission"}
	case qctx.Err() != nil:
		return s.interrupted(qctx)
	case errors.Is(err, context.DeadlineExceeded):
		// admitTimeout elapsed against a full shard queue: explicit
		// backpressure.
		s.met.backpressure.Add(1)
		return outcome{status: http.StatusTooManyRequests, msg: "admission queue full",
			retryAfter: admitTimeout, transient: true}
	default:
		s.met.unavailable.Add(1)
		return outcome{status: http.StatusServiceUnavailable, msg: err.Error(), retryAfter: time.Second}
	}

	select {
	case r := <-s.waiters[seq]:
		switch {
		case !r.Rejected:
			s.met.served.Add(1)
			s.met.observe(r.Latency)
			return outcome{status: http.StatusOK, res: r, shard: shard}
		case r.Reason == serve.RejectDeadline:
			s.met.deadline.Add(1)
			return outcome{status: http.StatusGatewayTimeout, msg: "deadline exceeded in queue"}
		default: // serve.RejectCanceled
			return s.interrupted(qctx)
		}
	case <-qctx.Done():
		// The query may still sit in the shard queue; a reaper waits
		// out its terminal callback before recycling the slot.
		s.reap(seq)
		o := s.interrupted(qctx)
		o.handedOff = true
		return o
	case <-s.stopped:
		s.reap(seq)
		s.met.unavailable.Add(1)
		return outcome{status: http.StatusServiceUnavailable, msg: errServerStopped.Error(),
			retryAfter: time.Second, transient: true, handedOff: true}
	}
}

// reap owns an abandoned sequence slot: it waits for the query's
// terminal callback (or the stop switch) and only then recycles the
// slot, so an in-queue query can never alias a newer request's waiter.
func (s *Server) reap(seq int) {
	go func() {
		select {
		case <-s.waiters[seq]:
		case <-s.stopped:
		}
		s.releaseSeq(seq)
	}()
}

// interrupted classifies a wait cut short by qctx or the stop switch.
func (s *Server) interrupted(qctx context.Context) outcome {
	switch {
	case qctx.Err() != nil:
		s.met.clientGone.Add(1)
		return outcome{status: 0}
	default:
		s.met.unavailable.Add(1)
		return outcome{status: http.StatusServiceUnavailable, msg: errServerStopped.Error(),
			retryAfter: time.Second, transient: true}
	}
}

// acquireSeq takes a sequence slot, draining any stale result left by a
// stopped-server edge, without blocking past cancellation or a stop.
func (s *Server) acquireSeq(qctx context.Context) (int, bool) {
	select {
	case seq := <-s.seqFree:
		select {
		case <-s.waiters[seq]:
		default:
		}
		return seq, true
	case <-qctx.Done():
		return 0, false
	case <-s.stopped:
		return 0, false
	}
}

// releaseSeq returns a slot whose waiter channel is quiescent.
func (s *Server) releaseSeq(seq int) {
	s.seqFree <- seq
}
