// Command imflow-serve runs the HTTP retrieval front end over one
// paper-scale cell: POST /v1/query and /v1/submit serve bucket or raw
// replica queries through the sharded serving layer with deadline
// propagation, per-client rate limiting, and reject-new shedding at a
// bounded admission window; GET /healthz, /readyz, and /metrics expose
// liveness, drain state, and the degradation counters. SIGINT/SIGTERM
// trigger a graceful drain bounded by -drain-timeout.
//
// Usage:
//
//	imflow-serve                                   # :8080, N=20 cell, 4 shards
//	imflow-serve -addr :9000 -n 60 -workers 8
//	imflow-serve -max-inflight 64 -rate 500 -burst 50
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"imflow/internal/experiment"
	"imflow/internal/httpd"
	"imflow/internal/query"
	"imflow/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "imflow-serve: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, serves until SIGINT or SIGTERM, then drains. It
// returns nil only after a clean drain.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("imflow-serve", flag.ExitOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	n := fs.Int("n", 20, "grid size (N x N buckets per site)")
	expNum := fs.Int("exp", 2, "Table IV experiment number")
	workers := fs.Int("workers", 4, "serving-layer shards")
	queueDepth := fs.Int("queue", 0, "per-shard admission queue bound (default 64)")
	batch := fs.Int("batch", 0, "max queries coalesced per worker wakeup (default 16)")
	maxInflight := fs.Int("max-inflight", 0, "admission window; requests past it are shed with 503 (default 256)")
	rate := fs.Float64("rate", 0, "per-client token-bucket rate in queries/sec (batch items each cost a token; 0 disables)")
	burst := fs.Float64("burst", 0, "per-client token-bucket burst (default 1)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
	seed := fs.Uint64("seed", 0, "cell build seed (default 42)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *seed == 0 {
		*seed = 42
	}
	cfg := experiment.Config{
		ExpNum:  *expNum,
		Alloc:   experiment.RDA,
		Type:    query.Range,
		Load:    query.Load2,
		N:       *n,
		Queries: 1,
		Seed:    *seed,
	}
	inst, err := cfg.Build()
	if err != nil {
		return err
	}
	s, err := httpd.New(inst.System, inst.Alloc, httpd.Options{
		Serve:       serve.Options{Workers: *workers, QueueDepth: *queueDepth, Batch: *batch},
		MaxInflight: *maxInflight,
		RatePerSec:  *rate,
		RateBurst:   *burst,
		Seed:        *seed,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s}
	fmt.Fprintf(stderr, "imflow-serve: cell %s (%d buckets, %d disks), %d shards, listening on %s\n",
		cfg, inst.Alloc.Grid.Buckets(), inst.System.NumDisks(), *workers, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	//lint:ignore ctxleak serveErr is buffered (cap 1) with exactly one sender; the send can never block
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Fprintf(stderr, "imflow-serve: draining (budget %v)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "imflow-serve: listener shutdown: %v\n", err)
	}
	if err := s.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stderr, "imflow-serve: drained cleanly")
	return nil
}
