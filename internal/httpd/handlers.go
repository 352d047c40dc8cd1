package httpd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// QueryResponse is the wire form of one served query.
type QueryResponse struct {
	ResponseTimeUs int64 `json:"response_time_us"`
	FinishUs       int64 `json:"finish_us"`
	LatencyUs      int64 `json:"latency_us"`
	Dropped        int   `json:"dropped,omitempty"`
	Failovers      int   `json:"failovers,omitempty"`
	Shard          int   `json:"shard"`
}

// ErrorResponse is the wire form of every non-200 answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Transient marks conditions worth retrying after Retry-After.
	Transient bool `json:"transient,omitempty"`
}

// SubmitResponse is the per-item answer to a /v1/submit batch.
type SubmitResponse struct {
	Results []SubmitItem `json:"results"`
}

// SubmitItem carries one batch item's status plus either a result or an
// error, mirroring the singleton endpoint's split.
type SubmitItem struct {
	Status int            `json:"status"`
	Query  *QueryResponse `json:"query,omitempty"`
	Err    *ErrorResponse `json:"error,omitempty"`
}

// routes builds the method-and-path mux.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// clientID attributes a request to a rate-limit principal: the
// X-Client-ID header when present (load generators and tests), the
// remote host otherwise. The header is taken verbatim and every new id
// gets a full burst, so the rate limit binds only a client that keeps
// one id; one that rotates ids is never limited.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// countingWriter measures egress for the per-client accounting.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// writeJSON writes one JSON answer with the standard headers.
func writeJSON(w http.ResponseWriter, status int, retryAfter time.Duration, v any) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		secs := int64(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(status)
	// A client that vanished mid-write surfaces here; there is nobody
	// left to tell.
	_ = json.NewEncoder(w).Encode(v)
}

// writeOutcome translates a dispatch outcome to the wire. A zero status
// means the client is gone: nothing is writable, the connection is dead.
func writeOutcome(w http.ResponseWriter, o outcome) {
	if o.status == 0 {
		return
	}
	if o.status != http.StatusOK {
		writeJSON(w, o.status, o.retryAfter, ErrorResponse{Error: o.msg, Transient: o.transient})
		return
	}
	writeJSON(w, http.StatusOK, 0, queryResponse(o))
}

func queryResponse(o outcome) *QueryResponse {
	return &QueryResponse{
		ResponseTimeUs: int64(o.res.ResponseTime),
		FinishUs:       int64(o.res.Finish),
		LatencyUs:      o.res.Latency.Microseconds(),
		Dropped:        o.res.Dropped,
		Failovers:      o.res.Failovers,
		Shard:          o.shard,
	}
}

// readBody reads the size-capped request body; a limit overrun answers
// 413 instead of 400 so clients can tell "too big" from "malformed".
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opt.Limits.MaxBodyBytes))
	if err == nil {
		return body, true
	}
	s.met.badRequest.Add(1)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge, 0,
			ErrorResponse{Error: fmt.Sprintf("httpd: body exceeds %d bytes", tooBig.Limit)})
	} else {
		writeJSON(w, http.StatusBadRequest, 0, ErrorResponse{Error: "httpd: unreadable body: " + err.Error()})
	}
	return nil, false
}

// admitHTTP runs the per-client rate-limit gate shared by the query
// endpoints, charging n tokens; it reports whether the request may
// proceed. The gate runs before the body is read, so a denied batch's
// size is unknown by design: rejections are metered per envelope, and
// an admitted batch's remaining items are charged after decode via
// rateLimiter.charge.
func (s *Server) admitHTTP(w http.ResponseWriter, r *http.Request, client string, n float64) bool {
	ok, retryAfter := s.rl.allow(client, time.Now(), n)
	if !ok {
		s.met.rateLimited.Add(1)
		s.met.addClient(client, false, true, 0)
		writeJSON(w, http.StatusTooManyRequests, retryAfter, ErrorResponse{Error: "rate limited", Transient: true})
		return false
	}
	return true
}

// headerDeadline folds the X-Deadline-Ms header into a request that
// carries no body deadline; the body field wins when both are set.
func headerDeadline(r *http.Request, qr *QueryRequest, lim Limits) error {
	if qr.DeadlineMs != 0 {
		return nil
	}
	h := r.Header.Get("X-Deadline-Ms")
	if h == "" {
		return nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms < 0 || ms > lim.MaxDeadline.Milliseconds() {
		return fmt.Errorf("httpd: bad X-Deadline-Ms %q", h)
	}
	qr.DeadlineMs = ms
	return nil
}

// handleQuery is POST /v1/query: one query, one answer.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	client := clientID(r)
	s.met.requests.Add(1)
	if !s.beginRequest() {
		s.met.unavailable.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, time.Second, ErrorResponse{Error: "draining", Transient: true})
		return
	}
	defer s.endRequest()
	if !s.admitHTTP(w, r, client, 1) {
		return
	}

	cw := &countingWriter{ResponseWriter: w}
	body, ok := s.readBody(cw, r)
	if !ok {
		s.met.addClient(client, false, false, cw.n)
		return
	}
	qr, err := DecodeQuery(body, s.opt.Limits)
	if err == nil {
		err = headerDeadline(r, &qr, s.opt.Limits)
	}
	if err != nil {
		s.met.badRequest.Add(1)
		writeJSON(cw, http.StatusBadRequest, 0, ErrorResponse{Error: err.Error()})
		s.met.addClient(client, false, false, cw.n)
		return
	}
	o := s.dispatch(r.Context(), qr, s.pickShard())
	writeOutcome(cw, o)
	s.met.addClient(client, o.status == http.StatusOK, false, cw.n)
}

// handleSubmit is POST /v1/submit: a query batch pinned to one shard so
// the serving worker coalesces it into one admission batch. Items are
// dispatched concurrently and answered per item; the HTTP status is 200
// whenever the envelope itself was acceptable.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	client := clientID(r)
	s.met.requests.Add(1)
	if !s.beginRequest() {
		s.met.unavailable.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, time.Second, ErrorResponse{Error: "draining", Transient: true})
		return
	}
	defer s.endRequest()
	// The gate runs before any ingest, as on /v1/query: a rate-limited
	// client must not cost MaxBodyBytes of read plus a JSON parse per
	// rejected envelope. One token covers the envelope here; the rest of
	// the batch is charged right after decode, once its size is known.
	if !s.admitHTTP(w, r, client, 1) {
		return
	}

	cw := &countingWriter{ResponseWriter: w}
	body, ok := s.readBody(cw, r)
	if !ok {
		s.met.addClient(client, false, false, cw.n)
		return
	}
	sr, err := DecodeSubmit(body, s.opt.Limits)
	if err != nil {
		s.met.badRequest.Add(1)
		writeJSON(cw, http.StatusBadRequest, 0, ErrorResponse{Error: err.Error()})
		s.met.addClient(client, false, false, cw.n)
		return
	}
	s.met.requests.Add(int64(len(sr.Queries) - 1)) // count batch items, not envelopes
	s.rl.charge(client, time.Now(), float64(len(sr.Queries)-1))

	shard := s.pickShard()
	items := make([]SubmitItem, len(sr.Queries))
	var wg sync.WaitGroup
	for i := range sr.Queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := s.dispatch(r.Context(), sr.Queries[i], shard)
			if o.status == 0 {
				// Client gone: fill a terminal status anyway; the write
				// below will fail harmlessly on the dead connection.
				items[i] = SubmitItem{Status: http.StatusServiceUnavailable,
					Err: &ErrorResponse{Error: "request canceled"}}
				return
			}
			if o.status == http.StatusOK {
				items[i] = SubmitItem{Status: o.status, Query: queryResponse(o)}
				return
			}
			items[i] = SubmitItem{Status: o.status, Err: &ErrorResponse{Error: o.msg, Transient: o.transient}}
		}(i)
	}
	wg.Wait()
	served := false
	for _, it := range items {
		if it.Status == http.StatusOK {
			served = true
			break
		}
	}
	writeJSON(cw, http.StatusOK, 0, SubmitResponse{Results: items})
	s.met.addClient(client, served, false, cw.n)
}

// handleHealthz is the liveness probe: 200 while the process serves at
// all, 503 once the serve layer has failed.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.stopped:
		writeJSON(w, http.StatusServiceUnavailable, 0, map[string]string{"status": "stopped"})
	default:
		writeJSON(w, http.StatusOK, 0, map[string]string{"status": "ok"})
	}
}

// handleReadyz is the readiness probe: it flips to 503 the moment
// Shutdown begins, so load balancers drain ahead of the hard stop.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, 0, map[string]string{"status": "draining"})
		return
	}
	select {
	case <-s.stopped:
		writeJSON(w, http.StatusServiceUnavailable, 0, map[string]string{"status": "stopped"})
	default:
		writeJSON(w, http.StatusOK, 0, map[string]string{"status": "ready"})
	}
}

// handleMetrics serves the full Stats snapshot as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, 0, s.Stats())
}

// Stats assembles the observability snapshot behind /metrics.
func (s *Server) Stats() Stats {
	p50, p95, p99 := s.met.percentiles()
	uptime := time.Since(s.met.start).Seconds()
	served := s.met.served.Load()
	var qps float64
	if uptime > 0 {
		qps = float64(served) / uptime
	}
	buckets := 0
	if s.alloc != nil {
		buckets = s.alloc.Grid.Buckets()
	}
	return Stats{
		UptimeSeconds: uptime,
		QPS:           qps,
		Requests:      s.met.requests.Load(),
		Served:        served,
		BadRequest:    s.met.badRequest.Load(),
		RateLimited:   s.met.rateLimited.Load(),
		Backpressure:  s.met.backpressure.Load(),
		ShedRejected:  s.met.shedRejected.Load(),
		Unavailable:   s.met.unavailable.Load(),
		Deadline:      s.met.deadline.Load(),
		ClientGone:    s.met.clientGone.Load(),
		EgressBytes:   s.met.egressBytes.Load(),
		P50LatencyUs:  p50,
		P95LatencyUs:  p95,
		P99LatencyUs:  p99,
		QueueDepths:   s.srv.QueueDepths(nil),
		Inflight:      s.adm.depth(),
		Draining:      s.isDraining(),
		Serve:         s.srv.SolveStats(),
		Fault:         s.srv.FaultStats(),
		Clients:       s.met.clientSnapshot(),
		Buckets:       buckets,
		Disks:         s.sys.NumDisks(),
	}
}
