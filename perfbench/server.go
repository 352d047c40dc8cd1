package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"imflow/internal/experiment"
	"imflow/internal/fault"
	"imflow/internal/httpd"
	"imflow/internal/serve"
)

// server is one cold-started front end behind a loopback listener.
type server struct {
	inst   *experiment.Instance
	front  *httpd.Server
	hs     *http.Server
	addr   string
	served chan error
}

// startServer builds the workload's cell and the front end exactly as
// cmd/imflow-serve does by default — 4 shards, reject-new, default
// window, queue and batch, no solve cache, no batch pool, no rate limit
// — and serves it on a loopback port. chaos, when non-nil, runs through
// the serving layer; tr, when non-nil, wraps the handler and the shard
// solvers.
func startServer(w *workload, chaos *fault.Schedule, tr *tracer) (*server, error) {
	inst, err := w.config().Build()
	if err != nil {
		return nil, fmt.Errorf("building cell %s: %w", w.config(), err)
	}
	opt := httpd.Options{
		Serve:  serve.Options{Workers: 4, Fault: chaos},
		Policy: httpd.RejectNew,
		Seed:   cellSeed,
	}
	if tr != nil {
		tr.resetSolvers()
		opt.Serve.NewSolver = tr.newSolver
		opt.Serve.OnSchedule = tr.onSchedule
	}
	front, err := httpd.New(inst.System, inst.Alloc, opt)
	if err != nil {
		return nil, fmt.Errorf("starting the front end: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = front.Shutdown(context.Background()) // nothing was admitted
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	var h http.Handler = front
	if tr != nil {
		h = tr.handler(front)
	}
	s := &server{
		inst:   inst,
		front:  front,
		hs:     &http.Server{Handler: h},
		addr:   ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the listener and then the serving layer, and waits until
// the serving goroutine has returned.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	herr := s.hs.Shutdown(ctx)
	ferr := s.front.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serving: %w", err)
	}
	if herr != nil {
		return fmt.Errorf("listener shutdown: %w", herr)
	}
	if ferr != nil {
		return fmt.Errorf("front-end drain: %w", ferr)
	}
	return nil
}

// coldStart times one start from nothing to the first answer: cell build,
// httpd.New, listener up, connection, and the fixed set-up request
// answered 200.
func coldStart(w *workload, chaos *fault.Schedule, probe request) (time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(w, chaos, nil)
	if err != nil {
		return 0, err
	}
	c, err := dial(s.addr, w.path())
	if err != nil {
		_ = s.close() // already failing
		return 0, err
	}
	status, body, err := c.do(1, probe.body)
	took := time.Since(t0)
	c.close()
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if _, err := w.checkAnswer(&probe, status, body); err != nil {
		return 0, fmt.Errorf("set-up request: %w", err)
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("set-up request answered %d: %s", status, body)
	}
	return took, nil
}
