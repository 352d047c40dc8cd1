package httpd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"
)

// fuzzLimits mirror a small production configuration: the 36-bucket /
// 12-disk paper grid with tight count bounds so the fuzzer spends its
// budget on structure, not on huge arrays.
var fuzzLimits = Limits{Buckets: 36, Disks: 12, MaxBuckets: 64, MaxReplicas: 4, MaxBatch: 16, MaxDeadline: time.Minute}

// referenceUnmarshal is the strict encoding/json decode the scanner
// replaced: unknown fields refused, and exactly one JSON value, so the
// second Decode must meet the end of the input.
func referenceUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("httpd: bad request body: %w", err)
	}
	var trailing any
	if err := dec.Decode(&trailing); err != io.EOF {
		return fmt.Errorf("httpd: trailing data after request body")
	}
	return nil
}

// referenceValidate is the full validation of a decoded query, written
// apart from the scanner's so the fuzz targets compare two derivations.
func referenceValidate(q *QueryRequest, lim Limits) error {
	switch {
	case len(q.Buckets) == 0 && len(q.Replicas) == 0:
		return fmt.Errorf("needs buckets or replicas")
	case len(q.Buckets) > 0 && len(q.Replicas) > 0:
		return fmt.Errorf("mutually exclusive")
	case q.DeadlineMs < 0 || q.DeadlineMs > lim.MaxDeadline.Milliseconds():
		return fmt.Errorf("deadline out of range")
	case len(q.Buckets) > lim.MaxBuckets || len(q.Replicas) > lim.MaxBuckets:
		return fmt.Errorf("too many buckets")
	}
	for _, b := range q.Buckets {
		if b < 0 || (lim.Buckets > 0 && b >= lim.Buckets) {
			return fmt.Errorf("bucket id out of range")
		}
	}
	for _, reps := range q.Replicas {
		if len(reps) == 0 || len(reps) > lim.MaxReplicas {
			return fmt.Errorf("bad replica count")
		}
		for _, d := range reps {
			if d < 0 || (lim.Disks > 0 && d >= lim.Disks) {
				return fmt.Errorf("disk id out of range")
			}
		}
	}
	return nil
}

// referenceDecodeQuery is DecodeQuery's reference: encoding/json, then
// referenceValidate.
func referenceDecodeQuery(data []byte, lim Limits) (QueryRequest, error) {
	lim = lim.withDefaults()
	var q QueryRequest
	if err := referenceUnmarshal(data, &q); err != nil {
		return QueryRequest{}, err
	}
	if err := referenceValidate(&q, lim); err != nil {
		return QueryRequest{}, err
	}
	return q, nil
}

// referenceDecodeSubmit is DecodeSubmit's reference.
func referenceDecodeSubmit(data []byte, lim Limits) (SubmitRequest, error) {
	lim = lim.withDefaults()
	var s SubmitRequest
	if err := referenceUnmarshal(data, &s); err != nil {
		return SubmitRequest{}, err
	}
	if len(s.Queries) == 0 || len(s.Queries) > lim.MaxBatch {
		return SubmitRequest{}, fmt.Errorf("bad batch size")
	}
	for i := range s.Queries {
		if err := referenceValidate(&s.Queries[i], lim); err != nil {
			return SubmitRequest{}, err
		}
	}
	return s, nil
}

// FuzzDecodeQuery feeds arbitrary bytes to the request decoder and to
// the encoding/json reference: the decoder must never panic, and every
// body it accepts the reference must accept with a deeply equal value,
// which also holds it to every validation invariant. The reference may
// accept more: keys matched by case folding or through escapes, and
// duplicate keys, which the decoder refuses. Run
// `go test -fuzz=FuzzDecodeQuery ./internal/httpd` to explore beyond
// the seed corpus.
func FuzzDecodeQuery(f *testing.F) {
	f.Add(`{"buckets":[0,1,35]}`)
	f.Add(`{"replicas":[[0,6],[11]]}`)
	f.Add(`{"buckets":[3],"deadline_ms":250}`)
	f.Add(`{"buckets":[-1]}`)
	f.Add(`{"buckets":[1],"deadline_ms":-9223372036854775808}`)
	f.Add(`{"buckets":[1],"deadline_ms":9223372036854775807}`)
	f.Add(`{"replicas":[[]]}`)
	f.Add(`garbage`)
	f.Add(`{"buckets":[1]} trailing`)
	f.Fuzz(func(t *testing.T, input string) {
		q, err := DecodeQuery([]byte(input), fuzzLimits)
		if err != nil {
			return // rejection is fine; panics are not
		}
		ref, rerr := referenceDecodeQuery([]byte(input), fuzzLimits)
		if rerr != nil {
			t.Fatalf("decoder accepted %q as %#v; the reference refuses it: %v", input, q, rerr)
		}
		if !reflect.DeepEqual(q, ref) {
			t.Fatalf("decoder read %q as %#v, the reference as %#v", input, q, ref)
		}
	})
}

// FuzzDecodeSubmit holds the batch decoder to its reference the same way.
func FuzzDecodeSubmit(f *testing.F) {
	f.Add(`{"queries":[{"buckets":[1]}]}`)
	f.Add(`{"queries":[]}`)
	f.Add(`{"queries":[{"buckets":[1]},{"replicas":[[0]]}]}`)
	f.Add(`{"queries":null}`)
	f.Fuzz(func(t *testing.T, input string) {
		s, err := DecodeSubmit([]byte(input), fuzzLimits)
		if err != nil {
			return
		}
		ref, rerr := referenceDecodeSubmit([]byte(input), fuzzLimits)
		if rerr != nil {
			t.Fatalf("decoder accepted %q as %#v; the reference refuses it: %v", input, s, rerr)
		}
		if !reflect.DeepEqual(s, ref) {
			t.Fatalf("decoder read %q as %#v, the reference as %#v", input, s, ref)
		}
	})
}
