package main

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"regexp"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestArrivalsReproducibleFromSeed(t *testing.T) {
	const n, span = 500, 2 * time.Second
	a, b := arrivals(7, n, span), arrivals(7, n, span)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if slices.Equal(a, arrivals(8, n, span)) {
		t.Fatal("seeds 7 and 8 drew the same schedule")
	}
	if len(a) != n || !slices.IsSorted(a) || a[0] < 0 || a[n-1] >= span {
		t.Fatalf("schedule is not %d sorted instants in [0, %v): first %v last %v", n, span, a[0], a[n-1])
	}
	if first := a[n/2-1]; first >= time.Second || a[n/2] < time.Second {
		t.Fatalf("the first second holds not exactly %d arrivals: the %dth is at %v, the next at %v", n/2, n/2, first, a[n/2])
	}
}

// stub serves every request with handle on a loopback port until the
// test ends.
func stub(t *testing.T, handle http.HandlerFunc) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: handle}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed at cleanup
	}()
	t.Cleanup(func() {
		_ = hs.Close()
		<-done
	})
	return ln.Addr().String()
}

func ok(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) }

// answered accepts any answer from a stub as one served query.
func answered(_, _ int, _ []byte) ([]outcome, error) { return []outcome{{served: true}}, nil }

func TestArrivalsIndependentOfServerSpeed(t *testing.T) {
	due := arrivals(3, 20, 100*time.Millisecond)
	bodies := make([][]byte, len(due))
	for i := range bodies {
		bodies[i] = []byte("{}")
	}
	fast := stub(t, ok)
	slow := stub(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(15 * time.Millisecond)
		ok(w, r)
	})
	for _, addr := range []string{fast, slow} {
		var ids atomic.Int64
		samples, _, err := openLoop(addr, "/", bodies, due, &ids, answered)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range samples {
			if s.due != due[i] || s.status != http.StatusOK || s.sent < s.due {
				t.Fatalf("request %d: due %v sent %v status %d; schedule says due %v", i, s.due, s.sent, s.status, due[i])
			}
		}
	}
}

// TestStallChargedToQueuedRequests: the server stalls once, holding
// every connection, and each request that fell due during the stall is
// timed from its due time, so it carries the rest of the stall.
func TestStallChargedToQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	var once sync.Once
	addr := stub(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		once.Do(func() { time.Sleep(stall) })
		mu.Unlock()
		ok(w, r)
	})
	due := make([]time.Duration, 20)
	bodies := make([][]byte, len(due))
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
		bodies[i] = []byte("{}")
	}
	var ids atomic.Int64
	samples, _, err := openLoop(addr, "/", bodies, due, &ids, answered)
	if err != nil {
		t.Fatal(err)
	}
	waited := 0
	for i, s := range samples {
		if s.waited {
			waited++
		}
		if s.due >= stall {
			continue
		}
		if got, least := s.latency(), stall-s.due; got < least {
			t.Errorf("request %d due at %v: latency %v, but the stall held it until %v", i, s.due, got, stall)
		}
	}
	if waited == 0 {
		t.Error("no request was counted as waiting for a free connection during the stall")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile sorts
		}
		return xs
	}
	if _, err := percentile(ramp(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(ramp(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond it", v, err)
	}
	if _, err := percentile(ramp(19), 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(ramp(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestCheckAnswerRejectsWrongAnswers(t *testing.T) {
	single := &workload{}
	req := &request{sizes: []int{5}}
	for _, body := range []string{
		`{"response_time_us":0,"finish_us":10,"latency_us":1,"shard":0}`,
		`{"response_time_us":20,"finish_us":10,"latency_us":1,"shard":0}`,
		`{"response_time_us":20,"finish_us":30,"latency_us":1,"dropped":6,"shard":0}`,
		`not json`,
	} {
		if _, err := single.checkAnswer(req, http.StatusOK, []byte(body)); err == nil {
			t.Errorf("accepted %s", body)
		}
	}
	if got, err := single.checkAnswer(req, http.StatusOK, []byte(`{"response_time_us":0,"finish_us":0,"latency_us":1,"dropped":5,"shard":0}`)); err != nil || !got[0].served {
		t.Errorf("a query whose every bucket was dropped is served with response 0: %v %v", got, err)
	}
	if _, err := single.checkAnswer(req, http.StatusBadRequest, []byte(`{"error":"x"}`)); err == nil {
		t.Error("accepted a 400 for a valid request")
	}
	batch := &workload{batch: 2}
	two := &request{sizes: []int{5, 5}}
	if _, err := batch.checkAnswer(two, http.StatusOK, []byte(`{"results":[{"status":200,"query":{"response_time_us":5,"finish_us":9}}]}`)); err == nil {
		t.Error("accepted an envelope answer with one item for two queries")
	}
	if _, err := batch.checkAnswer(two, http.StatusOK, []byte(`{"results":[{"status":200},{"status":503,"error":{"error":"x"}}]}`)); err == nil {
		t.Error("accepted a 200 item without a result")
	}
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestBenchmarkJSONMatchesCode: every workload and metric name is well
// formed, and BENCHMARK.json lists exactly the workloads and metrics
// (with their units) the benchmark runs and reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(names, listed) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", listed, names)
	}
	for _, n := range append(names, metricNames(endToEndMetrics)...) {
		if !namePattern.MatchString(n) {
			t.Errorf("name %q does not match %s", n, namePattern)
		}
	}
	for _, n := range metricNames(perLayerMetrics) {
		if !namePattern.MatchString(n) {
			t.Errorf("name %q does not match %s", n, namePattern)
		}
	}
	for _, c := range []struct {
		kind string
		got  []named
		want map[string]string
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, perLayerMetrics}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, benchmark reports %d", len(c.got), c.kind, len(c.want))
		}
		for _, m := range c.got {
			if unit, ok := c.want[m.Name]; !ok || unit != m.Unit {
				t.Errorf("BENCHMARK.json %s metric %s (%s): benchmark reports unit %q", c.kind, m.Name, m.Unit, unit)
			}
		}
	}
}
