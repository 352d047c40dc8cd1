package httpd

import (
	"strconv"
	"testing"
	"time"
)

// TestMetricsBoundedClients rotates client ids past the table bound: the
// per-client table must stop growing at the bound plus the overflow
// entry, and the per-client sums must still account for every request.
func TestMetricsBoundedClients(t *testing.T) {
	m := newMetrics(time.Now())
	const ids = 2 * rateLimiterMaxClients
	for i := 0; i < ids; i++ {
		m.addClient("c"+strconv.Itoa(i), i%2 == 0, false, 10)
	}
	snap := m.clientSnapshot()
	if len(snap) > rateLimiterMaxClients+1 {
		t.Fatalf("client table grew to %d entries, bound is %d plus the overflow entry", len(snap), rateLimiterMaxClients)
	}
	var requests, served, egress int64
	for _, c := range snap {
		requests += c.Requests
		served += c.Served
		egress += c.EgressBytes
	}
	if requests != ids || served != ids/2 || egress != 10*ids {
		t.Fatalf("per-client sums requests=%d served=%d egress=%d, want %d, %d, %d", requests, served, egress, ids, ids/2, 10*ids)
	}
	if got := m.egressBytes.Load(); got != egress {
		t.Fatalf("global egress %d, per-client sum %d", got, egress)
	}
	if c := snap[overflowClient]; c.Requests != ids-rateLimiterMaxClients {
		t.Fatalf("overflow entry counted %d requests, want %d", c.Requests, ids-rateLimiterMaxClients)
	}
	// An id admitted before the table filled keeps its own entry.
	m.addClient("c0", true, false, 0)
	if c := m.clientSnapshot()["c0"]; c.Requests != 2 {
		t.Fatalf("early client c0 has %d requests, want 2", c.Requests)
	}
}
