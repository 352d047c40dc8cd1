package httpd

import (
	"sync"
	"sync/atomic"
	"time"

	"imflow/internal/serve"
	"imflow/internal/stats"
)

// latencyWindow is the sliding sample count behind the p50/p95/p99
// columns and the overload controller's p99 signal.
const latencyWindow = 2048

// p99RefreshEvery is how many recorded latencies elapse between
// recomputations of the cached p99 the overload controller reads; the
// controller needs a cheap atomic load on every request, not a sort.
const p99RefreshEvery = 64

// overflowClient is the per-client table key that absorbs every client id
// first seen after the table holds rateLimiterMaxClients entries, so a
// client rotating ids cannot grow the table (or every /metrics response)
// without bound, and the per-client sums still reconcile with the global
// counters.
const overflowClient = "(overflow)"

// metrics is the server's observability state: monotonic counters per
// outcome class, a sliding latency window, per-client accounting, and
// the cached p99 the shed controller polls.
type metrics struct {
	start time.Time

	requests       atomic.Int64 // queries received (batch items counted individually)
	served         atomic.Int64 // 200s
	badRequest     atomic.Int64 // 400/413
	rateLimited    atomic.Int64 // 429 token bucket, per rejected envelope (pre-decode, size unknown)
	backpressure   atomic.Int64 // 429 admission queue full past AdmitTimeout
	shedRejected   atomic.Int64 // 503 reject-new shedding
	shedEvicted    atomic.Int64 // 503 drop-latest-deadline eviction
	breakerDenied  atomic.Int64 // 503 every shard's breaker open
	faultExhausted atomic.Int64 // 503 transient retries exhausted
	unavailable    atomic.Int64 // 503 draining or server failed
	deadline       atomic.Int64 // 408/504 budget spent before or during queueing
	clientGone     atomic.Int64 // request abandoned: client disconnected mid-flight
	retries        atomic.Int64 // transient resubmissions
	egressBytes    atomic.Int64

	cachedP99Us atomic.Int64

	mu sync.Mutex
	// ring, ringLen, ringIdx, sinceRefresh, and clients are guarded by mu.
	ring         [latencyWindow]int64 // microseconds
	ringLen      int
	ringIdx      int
	sinceRefresh int
	clients      map[string]*clientStats
}

// clientStats is the per-client accounting the metrics endpoint exposes.
type clientStats struct {
	Requests    int64 `json:"requests"`
	Served      int64 `json:"served"`
	RateLimited int64 `json:"rate_limited"`
	EgressBytes int64 `json:"egress_bytes"`
}

func newMetrics(now time.Time) *metrics {
	return &metrics{start: now, clients: make(map[string]*clientStats)}
}

// observe records one served query's end-to-end latency and refreshes
// the cached p99 every p99RefreshEvery samples.
func (m *metrics) observe(latency time.Duration) {
	us := latency.Microseconds()
	m.mu.Lock()
	m.ring[m.ringIdx] = us
	m.ringIdx = (m.ringIdx + 1) % latencyWindow
	if m.ringLen < latencyWindow {
		m.ringLen++
	}
	m.sinceRefresh++
	refresh := m.sinceRefresh >= p99RefreshEvery
	if refresh {
		m.sinceRefresh = 0
	}
	var sample []float64
	if refresh {
		sample = make([]float64, m.ringLen)
		for i := 0; i < m.ringLen; i++ {
			sample[i] = float64(m.ring[i])
		}
	}
	m.mu.Unlock()
	if refresh {
		m.cachedP99Us.Store(int64(stats.Percentile(sample, 99)))
	}
}

// p99 is the overload controller's cheap read of the latest cached p99.
func (m *metrics) p99() time.Duration {
	return time.Duration(m.cachedP99Us.Load()) * time.Microsecond
}

// percentiles computes p50/p95/p99 over the current window for the
// metrics endpoint.
func (m *metrics) percentiles() (p50, p95, p99 float64) {
	m.mu.Lock()
	sample := make([]float64, m.ringLen)
	for i := 0; i < m.ringLen; i++ {
		sample[i] = float64(m.ring[i])
	}
	m.mu.Unlock()
	if len(sample) == 0 {
		return 0, 0, 0
	}
	ps := stats.Percentiles(sample, 50, 95, 99)
	return ps[0], ps[1], ps[2]
}

// addClient folds one request's outcome into the per-client table and
// the global egress counter. Once the table is full, new ids are counted
// under overflowClient.
func (m *metrics) addClient(id string, served, rateLimited bool, egress int64) {
	m.egressBytes.Add(egress)
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.clients[id]
	if c == nil && len(m.clients) >= rateLimiterMaxClients {
		id = overflowClient
		c = m.clients[id]
	}
	if c == nil {
		c = &clientStats{}
		m.clients[id] = c
	}
	c.Requests++
	if served {
		c.Served++
	}
	if rateLimited {
		c.RateLimited++
	}
	c.EgressBytes += egress
}

// clientSnapshot deep-copies the per-client table for the metrics
// endpoint.
func (m *metrics) clientSnapshot() map[string]clientStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]clientStats, len(m.clients))
	for id, c := range m.clients {
		out[id] = *c
	}
	return out
}

// Stats is the JSON document served by /metrics: one self-describing
// snapshot of throughput, latency, degradation counters, and the
// serving layer's own stats.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// QPS is served queries over uptime — the long-run average, not a
	// windowed rate.
	QPS float64 `json:"qps"`

	Requests       int64 `json:"requests"`
	Served         int64 `json:"served"`
	BadRequest     int64 `json:"bad_request"`
	RateLimited    int64 `json:"rate_limited"`
	Backpressure   int64 `json:"backpressure"`
	ShedRejected   int64 `json:"shed_rejected"`
	ShedEvicted    int64 `json:"shed_evicted"`
	BreakerDenied  int64 `json:"breaker_denied"`
	FaultExhausted int64 `json:"fault_exhausted"`
	Unavailable    int64 `json:"unavailable"`
	Deadline       int64 `json:"deadline"`
	ClientGone     int64 `json:"client_gone"`
	Retries        int64 `json:"retries"`
	EgressBytes    int64 `json:"egress_bytes"`

	P50LatencyUs float64 `json:"p50_latency_us"`
	P95LatencyUs float64 `json:"p95_latency_us"`
	P99LatencyUs float64 `json:"p99_latency_us"`

	QueueDepths []int    `json:"queue_depths"`
	Breakers    []string `json:"breakers"`
	Inflight    int      `json:"inflight"`
	Policy      string   `json:"policy"`
	Draining    bool     `json:"draining"`

	Serve serve.SolveStats `json:"serve"`
	Fault serve.FaultStats `json:"fault"`

	Clients map[string]clientStats `json:"clients"`

	// Buckets and Disks describe the grid the server fronts, so load
	// generators can shape valid queries from the endpoint alone.
	Buckets int `json:"buckets"`
	Disks   int `json:"disks"`
}
