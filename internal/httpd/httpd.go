// Package httpd is the network-facing retrieval front end: an HTTP layer
// over internal/serve built to degrade gracefully rather than fall over.
// Requests are decoded, rate-limited per client, admitted through a
// bounded window (shedding the newcomer once the window is full),
// translated into serve.Query admissions with the client's deadline and
// cancellation propagated, submitted once to a seeded shard draw, and
// answered with explicit backpressure statuses (429/503 + Retry-After)
// instead of unbounded queueing. A disk failure never reaches the front
// end as a rejection: the serve layer repairs the schedule in place.
// /healthz, /readyz, and /metrics expose liveness, drain state, and the
// full degradation counter set.
package httpd

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"imflow/internal/decluster"
	"imflow/internal/serve"
	"imflow/internal/storage"
	"imflow/internal/xrand"
)

// Options configure the front end. The zero value serves with the
// defaults noted per field.
type Options struct {
	// Serve configures the underlying shard servers. Deterministic mode
	// is rejected: an online front end is inherently wall-clock.
	Serve serve.Options
	// MaxInflight bounds the admission window: requests past decode and
	// rate limiting that have not yet been answered. <= 0 means 256.
	MaxInflight int
	// Policy names the shed behavior at the window's boundary. RejectNew
	// is its one value and the zero value; the field stays only because
	// perfbench/server.go sets it.
	Policy Policy
	// RatePerSec and RateBurst configure the per-client token bucket.
	// Tokens are charged per query, not per request — a /v1/submit
	// batch costs one token per item, debited as debt past the burst —
	// so batching cannot multiply a client's effective rate. The limit
	// binds only a client that keeps one id: every new id starts with a
	// full burst (see clientID).
	// RatePerSec <= 0 disables rate limiting. RateBurst < 1 means 1.
	RatePerSec float64
	RateBurst  float64
	// Limits bound request decoding; the Buckets/Disks id bounds are
	// filled from the system and allocation when zero.
	Limits Limits
	// Seed feeds the shard draw: one per /v1/query request, one per
	// /v1/submit envelope. 0 means 1.
	Seed uint64
}

func (o Options) withDefaults() (Options, error) {
	if o.Serve.Deterministic {
		return o, fmt.Errorf("httpd: deterministic serve mode has no place behind a wall-clock transport")
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	o.Limits = o.Limits.withDefaults()
	return o, nil
}

// Server is the HTTP front end. It implements http.Handler; callers own
// the http.Server/listener around it and call Shutdown for the serve-
// layer drain after the HTTP listener stops accepting.
type Server struct {
	sys   *storage.System
	alloc *decluster.Allocation // nil when only raw replica queries are accepted
	opt   Options

	srv *serve.Server
	mux *http.ServeMux
	adm *admitter
	rl  *rateLimiter
	met *metrics

	// seqFree recycles serve sequence slots. Sized 2x the admission
	// window so abandoned requests (client gone, result still in the
	// queue) can linger with their reaper goroutines without starving
	// fresh admissions.
	seqFree chan int
	// waiters[seq] carries the terminal serve.Result to the dispatching
	// handler; buffered 1 and drained before a seq is reused.
	waiters []chan serve.Result

	// stopped is closed when the serve layer fails or a forced shutdown
	// abandons the drain; every blocked handler and reaper selects on it.
	stopped   chan struct{}
	stopOnce  sync.Once
	draining  chan struct{} // closed by Shutdown: readyz flips, new work is refused
	drainOnce sync.Once
	// reqMu orders the draining flip against handlers joining inflight:
	// beginRequest holds it shared, Shutdown's flip holds it exclusive.
	reqMu    sync.RWMutex
	bgCancel context.CancelFunc
	inflight sync.WaitGroup

	rngMu sync.Mutex
	// rng feeds the shard draw; guarded by rngMu.
	rng *xrand.Source
}

// New builds the front end over one storage system. alloc, when
// non-nil, lets clients query by bucket id; without it only raw replica
// queries validate. The server starts serving as soon as the returned
// handler is mounted.
func New(sys *storage.System, alloc *decluster.Allocation, opt Options) (*Server, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if opt.Limits.Disks <= 0 {
		opt.Limits.Disks = sys.NumDisks()
	}
	if opt.Limits.Buckets <= 0 && alloc != nil {
		opt.Limits.Buckets = alloc.Grid.Buckets()
	}

	total := 2 * opt.MaxInflight
	s := &Server{
		sys:      sys,
		alloc:    alloc,
		opt:      opt,
		adm:      newAdmitter(opt.MaxInflight),
		rl:       newRateLimiter(opt.RatePerSec, opt.RateBurst),
		met:      newMetrics(time.Now()),
		seqFree:  make(chan int, total),
		waiters:  make([]chan serve.Result, total),
		stopped:  make(chan struct{}),
		draining: make(chan struct{}),
		rng:      xrand.New(opt.Seed),
	}
	for seq := 0; seq < total; seq++ {
		s.seqFree <- seq
		s.waiters[seq] = make(chan serve.Result, 1)
	}

	sopt := opt.Serve
	sopt.OnResult = s.onResult
	srv, err := serve.New(sys, total, sopt)
	if err != nil {
		return nil, err
	}
	s.srv = srv

	bg, cancel := context.WithCancel(context.Background())
	s.bgCancel = cancel
	srv.Start(bg)
	go s.watchFailure()
	s.mux = s.routes()
	return s, nil
}

// onResult is the serve completion hook: it forwards the terminal
// result to the waiting handler (or its reaper). The channel is
// buffered and drained before seq reuse, so the send never blocks the
// worker; the default arm is pure defence against a protocol bug.
func (s *Server) onResult(r serve.Result) {
	select {
	case s.waiters[r.Seq] <- r:
	default:
	}
}

// watchFailure trips the stop switch if the serve layer enters drain
// mode on its own (worker error): queries already admitted may never
// produce callbacks past that point, so blocked handlers must be
// released.
func (s *Server) watchFailure() {
	select {
	case <-s.srv.Failed():
		s.stop()
	case <-s.stopped:
	}
}

// stop releases every blocked handler and reaper; idempotent.
func (s *Server) stop() {
	s.stopOnce.Do(func() { close(s.stopped) })
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// FaultServer exposes the underlying serve.Server's manual fault
// injection (FailDisk/RecoverDisk) for operational tooling and tests.
func (s *Server) FaultServer() *serve.Server { return s.srv }

// Shutdown drains the front end: readiness flips immediately, new
// requests are refused with 503, and in-flight requests are given until
// ctx expires to finish. On a clean drain the serve layer is waited out
// fully; on ctx expiry the remaining work is abandoned (the serve layer
// flips to drain-only mode) before waiting. Call after the HTTP
// listener has stopped accepting (http.Server.Shutdown).
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		// The write lock orders the flip against every handler's
		// beginRequest: after this, no new request can join inflight.
		s.reqMu.Lock()
		close(s.draining)
		s.reqMu.Unlock()
	})

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var abandoned error
	select {
	case <-done:
	case <-ctx.Done():
		abandoned = fmt.Errorf("httpd: shutdown abandoned in-flight requests: %w", context.Cause(ctx))
		s.bgCancel() // serve flips to drain-only, releasing submitters
		s.stop()     // release blocked handlers and reapers
		<-done
	}
	s.stop() // release reapers so every slot returns
	_, err := s.srv.Wait()
	s.bgCancel()
	if abandoned != nil {
		return abandoned
	}
	return err
}

// beginRequest registers an in-flight request, refusing once draining
// has begun; endRequest is the paired release.
func (s *Server) beginRequest() bool {
	s.reqMu.RLock()
	defer s.reqMu.RUnlock()
	if s.isDraining() {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) endRequest() { s.inflight.Done() }

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// pickShard draws the shard for one /v1/query request or one whole
// /v1/submit envelope: a seeded uniform draw. Every item of an envelope
// goes to the same shard, so the serving worker coalesces the envelope
// into one admission batch.
func (s *Server) pickShard() int {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Intn(s.srv.Workers())
}
