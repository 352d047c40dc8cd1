package httpd

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"imflow/internal/xrand"
)

func TestDecodeQueryValid(t *testing.T) {
	q, err := DecodeQuery([]byte(`{"buckets":[0,3,5],"deadline_ms":250}`), Limits{Buckets: 36})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Buckets) != 3 || q.DeadlineMs != 250 {
		t.Fatalf("decoded %+v", q)
	}
	q, err = DecodeQuery([]byte(`{"replicas":[[0,7],[3,11]]}`), Limits{Disks: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Replicas) != 2 {
		t.Fatalf("decoded %+v", q)
	}
}

func TestDecodeQueryRejects(t *testing.T) {
	lim := Limits{Buckets: 36, Disks: 12, MaxBuckets: 4, MaxReplicas: 2, MaxDeadline: time.Second}
	cases := []struct {
		name, body, want string
	}{
		{"malformed", `{"buckets":`, "bad request body"},
		{"trailing", `{"buckets":[1]} {"buckets":[2]}`, "trailing data"},
		{"trailing-word", `{"buckets":[1]} trailing`, "trailing data"},
		{"trailing-bracket", `{"buckets":[1]}]`, "trailing data"},
		{"trailing-brace", `{"buckets":[1]}}`, "trailing data"},
		{"case-variant-key", `{"Buckets":[1]}`, "unknown field"},
		{"escaped-key", `{"bucket\u0073":[1]}`, "unknown field"},
		{"duplicate-key", `{"buckets":[1],"buckets":[2]}`, "duplicate field"},
		{"fraction", `{"buckets":[1.0]}`, "not an integer"},
		{"exponent", `{"buckets":[1e1]}`, "not an integer"},
		{"past-int64", `{"buckets":[1],"deadline_ms":9223372036854775808}`, "overflows"},
		{"leading-zero", `{"buckets":[01]}`, "bad request body"},
		{"nested-buckets", `{"buckets":[[1]]}`, "bad request body"},
		{"nested-replicas", `{"replicas":[[[1]]]}`, "bad request body"},
		{"unknown-field", `{"bucket_ids":[1]}`, "bad request body"},
		{"empty", `{}`, "needs buckets or replicas"},
		{"both", `{"buckets":[1],"replicas":[[0]]}`, "mutually exclusive"},
		{"negative-bucket", `{"buckets":[-1]}`, "outside"},
		{"bucket-too-big", `{"buckets":[36]}`, "outside"},
		{"too-many-buckets", `{"buckets":[1,2,3,4,5]}`, "exceeds"},
		{"negative-deadline", `{"buckets":[1],"deadline_ms":-5}`, "negative deadline_ms"},
		{"absurd-deadline", `{"buckets":[1],"deadline_ms":86400000}`, "exceeds"},
		{"negative-disk", `{"replicas":[[-3]]}`, "outside"},
		{"disk-too-big", `{"replicas":[[12]]}`, "outside"},
		{"empty-replica-list", `{"replicas":[[]]}`, "no replicas"},
		{"too-many-replicas", `{"replicas":[[0,1,2]]}`, "limit"},
	}
	for _, c := range cases {
		if _, err := DecodeQuery([]byte(c.body), lim); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestDecodeSubmit(t *testing.T) {
	s, err := DecodeSubmit([]byte(`{"queries":[{"buckets":[1]},{"buckets":[2]}]}`), Limits{Buckets: 36})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Queries) != 2 {
		t.Fatalf("decoded %+v", s)
	}
	if _, err := DecodeSubmit([]byte(`{"queries":[]}`), Limits{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := DecodeSubmit([]byte(`{"queries":[{"buckets":[1]},{"buckets":[-1]}]}`), Limits{}); err == nil ||
		!strings.Contains(err.Error(), "query 1") {
		t.Fatalf("bad item not attributed: %v", err)
	}
	lim := Limits{MaxBatch: 2}
	if _, err := DecodeSubmit([]byte(`{"queries":[{"buckets":[1]},{"buckets":[1]},{"buckets":[1]}]}`), lim); err == nil {
		t.Fatal("over-limit batch accepted")
	}
}

// TestDecodeAcceptsJSONWhitespaceAndNull pins the accepting side of the
// wire language: whitespace anywhere JSON allows it, null for an absent
// field, and an empty array as an empty, non-nil list, as encoding/json
// decodes them.
func TestDecodeAcceptsJSONWhitespaceAndNull(t *testing.T) {
	q, err := DecodeQuery([]byte(" \t{ \"buckets\" :\n[ 1 ,2\r] , \"replicas\":null,\"deadline_ms\": null }\n"), Limits{Buckets: 36})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q, QueryRequest{Buckets: []int{1, 2}}) {
		t.Fatalf("decoded %#v", q)
	}
	q, err = DecodeQuery([]byte(`{"buckets":[],"replicas":[[0,-0]]}`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if q.Buckets == nil || !reflect.DeepEqual(q, QueryRequest{Buckets: []int{}, Replicas: [][]int{{0, 0}}}) {
		t.Fatalf("decoded %#v", q)
	}
}

// TestDecodeQueryOverLimitAllocationBounded shows the scan refuses an
// oversized id array having allocated for at most the limits, not for the
// body: a body of MaxBuckets+1 ids, and one of a hundred times that,
// each cost O(MaxBuckets) bytes.
func TestDecodeQueryOverLimitAllocationBounded(t *testing.T) {
	const maxBuckets = 512
	lim := Limits{MaxBuckets: maxBuckets, MaxReplicas: 1}
	for _, n := range []int{maxBuckets + 1, 100 * maxBuckets} {
		body, err := json.Marshal(QueryRequest{Buckets: make([]int, n)})
		if err != nil {
			t.Fatal(err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := DecodeQuery(body, lim); err == nil || !strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("%d ids: err = %v, want the bucket limit", n, err)
			}
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		if limit := uint64(8*(maxBuckets+1) + 512); perRun > limit {
			t.Fatalf("%d ids: %d bytes per rejected body, want at most %d", n, perRun, limit)
		}
	}
}

// TestDecodeAllocs pins the decoder's allocations: one slab for a
// query's ids, and for a batch the slab plus the query slice.
func TestDecodeAllocs(t *testing.T) {
	ids := make([]int, 1800)
	for i := range ids {
		ids[i] = (i * 37) % 3600
	}
	body, _ := json.Marshal(QueryRequest{Buckets: ids})
	if n := testing.AllocsPerRun(20, func() {
		if _, err := DecodeQuery(body, Limits{Buckets: 3600}); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("DecodeQuery: %v allocations, want 1", n)
	}
	sr := SubmitRequest{Queries: make([]QueryRequest, 16)}
	for i := range sr.Queries {
		sr.Queries[i].Buckets = ids[i*10 : i*10+30]
	}
	body, _ = json.Marshal(sr)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := DecodeSubmit(body, Limits{Buckets: 3600}); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("DecodeSubmit: %v allocations, want 2", n)
	}
}

// TestDecodeMatchesReferenceOnRandomRequests marshals random valid
// requests, sprinkles JSON whitespace between their tokens, and requires
// the decoder and the encoding/json reference to accept each one with the
// value it was marshalled from.
func TestDecodeMatchesReferenceOnRandomRequests(t *testing.T) {
	rng := xrand.New(25)
	randQuery := func() QueryRequest {
		var q QueryRequest
		if rng.Intn(2) == 0 {
			q.Buckets = make([]int, 1+rng.Intn(fuzzLimits.MaxBuckets))
			for i := range q.Buckets {
				q.Buckets[i] = rng.Intn(fuzzLimits.Buckets)
			}
		} else {
			q.Replicas = make([][]int, 1+rng.Intn(fuzzLimits.MaxBuckets))
			for i := range q.Replicas {
				q.Replicas[i] = make([]int, 1+rng.Intn(fuzzLimits.MaxReplicas))
				for k := range q.Replicas[i] {
					q.Replicas[i][k] = rng.Intn(fuzzLimits.Disks)
				}
			}
		}
		if rng.Intn(2) == 0 {
			q.DeadlineMs = int64(rng.Intn(int(fuzzLimits.MaxDeadline.Milliseconds()) + 1))
		}
		return q
	}
	for i := range 500 {
		q := randQuery()
		body := sprinkle(rng, mustMarshal(t, q))
		got, err := DecodeQuery(body, fuzzLimits)
		ref, rerr := referenceDecodeQuery(body, fuzzLimits)
		if err != nil || rerr != nil || !reflect.DeepEqual(got, q) || !reflect.DeepEqual(ref, q) {
			t.Fatalf("query %d %q: decoder %v (%#v), reference %v (%#v), want %#v", i, body, err, got, rerr, ref, q)
		}
		s := SubmitRequest{Queries: make([]QueryRequest, 1+rng.Intn(fuzzLimits.MaxBatch))}
		for k := range s.Queries {
			s.Queries[k] = randQuery()
		}
		body = sprinkle(rng, mustMarshal(t, s))
		gotS, err := DecodeSubmit(body, fuzzLimits)
		refS, rerr := referenceDecodeSubmit(body, fuzzLimits)
		if err != nil || rerr != nil || !reflect.DeepEqual(gotS, s) || !reflect.DeepEqual(refS, s) {
			t.Fatalf("batch %d %q: decoder %v, reference %v", i, body, err, rerr)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sprinkle inserts random JSON whitespace around every structural byte
// of a marshalled request, whose only strings are keys free of them.
func sprinkle(rng *xrand.Source, body []byte) []byte {
	ws := func(out []byte) []byte {
		for range rng.Intn(3) {
			out = append(out, " \t\n\r"[rng.Intn(4)])
		}
		return out
	}
	out := ws(nil)
	for _, c := range body {
		if strings.IndexByte("{}[],:", c) >= 0 {
			out = append(ws(out), c)
			out = ws(out)
			continue
		}
		out = append(out, c)
	}
	return out
}

// BenchmarkDecodeQuery decodes a paper-n60-sized body, 1,800 bucket ids,
// with the scanner and with the encoding/json reference it replaced.
func BenchmarkDecodeQuery(b *testing.B) {
	ids := make([]int, 1800)
	for i := range ids {
		ids[i] = (i * 37) % 3600
	}
	body, _ := json.Marshal(QueryRequest{Buckets: ids})
	lim := Limits{Buckets: 3600}
	for _, c := range []struct {
		name   string
		decode func([]byte, Limits) (QueryRequest, error)
	}{{"scanner", DecodeQuery}, {"encoding-json", referenceDecodeQuery}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := c.decode(body, lim); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
