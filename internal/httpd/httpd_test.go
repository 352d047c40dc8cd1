package httpd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"imflow/internal/decluster"
	"imflow/internal/grid"
	"imflow/internal/storage"
)

// newFrontend builds a front end over the small two-site test system
// (36 buckets, 12 disks) and mounts it on an httptest listener.
func newFrontend(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	sys := storage.Uniform(2, 6, storage.Cheetah)
	alloc := decluster.Orthogonal(grid.New(6))
	s, err := New(sys, alloc, opt)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, hs
}

func post(t *testing.T, url, body string, hdr map[string]string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestQueryRoundTrip(t *testing.T) {
	s, hs := newFrontend(t, Options{})

	status, body := post(t, hs.URL+"/v1/query", `{"buckets":[0,7,14],"deadline_ms":2000}`, nil)
	if status != http.StatusOK {
		t.Fatalf("bucket query: %d %s", status, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.ResponseTimeUs <= 0 || qr.FinishUs <= 0 {
		t.Fatalf("implausible response %+v", qr)
	}

	// Raw replica form and the header deadline carrier.
	status, body = post(t, hs.URL+"/v1/query", `{"replicas":[[0,6],[1,7]]}`, map[string]string{"X-Deadline-Ms": "2000"})
	if status != http.StatusOK {
		t.Fatalf("replica query: %d %s", status, body)
	}

	st := s.Stats()
	if st.Served != 2 || st.Requests != 2 {
		t.Fatalf("stats served=%d requests=%d, want 2/2", st.Served, st.Requests)
	}
	if st.Buckets != 36 || st.Disks != 12 {
		t.Fatalf("grid advertisement %d buckets / %d disks, want 36/12", st.Buckets, st.Disks)
	}
	if st.EgressBytes <= 0 {
		t.Fatal("egress accounting recorded nothing")
	}
	if c := st.Clients["127.0.0.1"]; c.Requests != 2 || c.Served != 2 {
		t.Fatalf("per-client accounting %+v", st.Clients)
	}
}

func TestProbesAndMetricsEndpoints(t *testing.T) {
	_, hs := newFrontend(t, Options{})
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("metrics is not a Stats document: %v", err)
	}
	if len(st.QueueDepths) == 0 {
		t.Fatalf("metrics missing the queue-depth column: %+v", st)
	}
}

func TestBadRequests(t *testing.T) {
	s, hs := newFrontend(t, Options{Limits: Limits{MaxBodyBytes: 256}})

	status, body := post(t, hs.URL+"/v1/query", `{"buckets":`, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("malformed: %d %s", status, body)
	}
	status, _ = post(t, hs.URL+"/v1/query", `{"buckets":[99]}`, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("out-of-range bucket: %d", status)
	}
	status, _ = post(t, hs.URL+"/v1/query", `{"buckets":[`+strings.Repeat("0,", 300)+`0]}`, nil)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", status)
	}
	resp, err := http.Get(hs.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST endpoint: %d", resp.StatusCode)
	}
	if st := s.Stats(); st.BadRequest != 3 {
		t.Fatalf("bad-request counter %d, want 3", st.BadRequest)
	}
}

func TestRateLimiting(t *testing.T) {
	_, hs := newFrontend(t, Options{RatePerSec: 0.001, RateBurst: 2})
	hdr := map[string]string{"X-Client-ID": "greedy"}

	for i := 0; i < 2; i++ {
		if status, body := post(t, hs.URL+"/v1/query", `{"buckets":[1]}`, hdr); status != http.StatusOK {
			t.Fatalf("burst request %d: %d %s", i, status, body)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/query", strings.NewReader(`{"buckets":[1]}`))
	req.Header.Set("X-Client-ID", "greedy")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("past-burst request: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// An unrelated client is unaffected.
	if status, _ := post(t, hs.URL+"/v1/query", `{"buckets":[1]}`, map[string]string{"X-Client-ID": "modest"}); status != http.StatusOK {
		t.Fatalf("independent client limited: %d", status)
	}
}

func TestShedRejectNewWhenWindowFull(t *testing.T) {
	s, hs := newFrontend(t, Options{MaxInflight: 2})

	// Occupy the whole admission window out-of-band, then knock.
	id1, ok1 := s.adm.acquire(time.Time{}, func(error) {}, false)
	id2, ok2 := s.adm.acquire(time.Time{}, func(error) {}, false)
	if !ok1 || !ok2 {
		t.Fatal("setup: could not fill the window")
	}
	defer s.adm.release(id1)
	defer s.adm.release(id2)

	status, body := post(t, hs.URL+"/v1/query", `{"buckets":[1]}`, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("full window: %d %s, want 503", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || !er.Transient {
		t.Fatalf("shed answer not marked transient: %s", body)
	}
	if st := s.Stats(); st.ShedRejected != 1 {
		t.Fatalf("shed counter %d, want 1", st.ShedRejected)
	}
}

func TestSubmitBatch(t *testing.T) {
	s, hs := newFrontend(t, Options{})
	status, body := post(t, hs.URL+"/v1/submit",
		`{"queries":[{"buckets":[0,1]},{"buckets":[6,7]},{"replicas":[[2,8]]}]}`, nil)
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 3 {
		t.Fatalf("batch answered %d items, want 3", len(sr.Results))
	}
	for i, it := range sr.Results {
		if it.Status != http.StatusOK || it.Query == nil || it.Query.ResponseTimeUs <= 0 {
			t.Fatalf("item %d: %+v", i, it)
		}
		// One envelope, one shard: the serving worker coalesces it into
		// one admission batch.
		if it.Query.Shard != sr.Results[0].Query.Shard {
			t.Fatalf("item %d served on shard %d, item 0 on shard %d", i, it.Query.Shard, sr.Results[0].Query.Shard)
		}
	}
	if st := s.Stats(); st.Served != 3 || st.Requests != 3 {
		t.Fatalf("stats served=%d requests=%d, want 3/3", st.Served, st.Requests)
	}
}

func TestShutdownDrainsAndRefuses(t *testing.T) {
	sys := storage.Uniform(2, 6, storage.Cheetah)
	alloc := decluster.Orthogonal(grid.New(6))
	s, err := New(sys, alloc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	defer hs.Close()

	if status, _ := post(t, hs.URL+"/v1/query", `{"buckets":[3]}`, nil); status != http.StatusOK {
		t.Fatalf("pre-drain query: %d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("clean shutdown returned %v", err)
	}
	// Post-drain: readiness and queries both refuse.
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown: %d, want 503", resp.StatusCode)
	}
	if status, _ := post(t, hs.URL+"/v1/query", `{"buckets":[3]}`, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("query after shutdown: %d, want 503", status)
	}
}

// TestDispatchDrainingIsTransient: a request that passed beginRequest just
// before Shutdown flipped reaches dispatch after the flip. Its 503 must be
// marked transient like the handlers' own "draining" answer, and so must
// the "server stopped" answer to a wait the stop switch cut short.
func TestDispatchDrainingIsTransient(t *testing.T) {
	sys := storage.Uniform(2, 6, storage.Cheetah)
	alloc := decluster.Orthogonal(grid.New(6))
	s, err := New(sys, alloc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("clean shutdown returned %v", err)
	}
	o := s.dispatch(context.Background(), QueryRequest{Buckets: []int{3}}, 0)
	if o.status != http.StatusServiceUnavailable || o.msg != "draining" || !o.transient || o.retryAfter <= 0 {
		t.Fatalf("dispatch after Shutdown: %+v, want a transient 503 draining with Retry-After", o)
	}
	o = s.interrupted(context.Background())
	if o.status != http.StatusServiceUnavailable || !o.transient || o.retryAfter <= 0 {
		t.Fatalf("stopped wait: %+v, want a transient 503 with Retry-After", o)
	}
}

func TestSubmitRateLimitGateAndBatchCharge(t *testing.T) {
	s, hs := newFrontend(t, Options{RatePerSec: 0.001, RateBurst: 3})
	hdr := map[string]string{"X-Client-ID": "batchy"}

	// One envelope of 3 queries: 1 token at the gate, 2 charged after
	// decode. The burst-3 bucket is now empty.
	status, body := post(t, hs.URL+"/v1/submit",
		`{"queries":[{"buckets":[0]},{"buckets":[1]},{"buckets":[2]}]}`, hdr)
	if status != http.StatusOK {
		t.Fatalf("batch inside the budget: %d %s", status, body)
	}
	// Batching bought nothing: the next envelope is rejected, where
	// per-envelope accounting would have had 2 tokens to spare.
	status, _ = post(t, hs.URL+"/v1/submit", `{"queries":[{"buckets":[3]}]}`, hdr)
	if status != http.StatusTooManyRequests {
		t.Fatalf("envelope past the charged batch: %d, want 429", status)
	}
	// The gate runs before ingest: a rate-limited client's body is never
	// read or parsed — 429, not 400, and no badRequest strike.
	before := s.Stats().BadRequest
	status, _ = post(t, hs.URL+"/v1/submit", `{"queries":`, hdr)
	if status != http.StatusTooManyRequests {
		t.Fatalf("malformed body from limited client: %d, want 429", status)
	}
	if after := s.Stats().BadRequest; after != before {
		t.Fatalf("rate-limited envelope was still decoded: badRequest %d -> %d", before, after)
	}
}

func TestDeadlineAlreadyExpiredUpstream(t *testing.T) {
	s, _ := newFrontend(t, Options{})
	// A 1ms budget consumed before dispatch: the serve layer must see a
	// negative Deadline and reject at Submit, answered as 504.
	qr := QueryRequest{Buckets: []int{1}, DeadlineMs: 1}
	time.Sleep(5 * time.Millisecond)
	deadline := time.Now().Add(-time.Millisecond)
	qctx, qcancel := context.WithCancelCause(context.Background())
	defer qcancel(nil)
	replicas, err := s.resolveReplicas(qr)
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := s.acquireSeq(qctx)
	if !ok {
		t.Fatal("seq acquisition failed")
	}
	o := s.attempt(qctx, seq, 0, replicas, deadline)
	if !o.handedOff {
		s.releaseSeq(seq)
	}
	if o.status != http.StatusGatewayTimeout {
		t.Fatalf("expired budget: %d %q, want 504", o.status, o.msg)
	}
	if st := s.Stats(); st.Deadline != 1 {
		t.Fatalf("deadline counter %d, want 1", st.Deadline)
	}
}
