package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"imflow/internal/httpd"
	"imflow/internal/retrieval"
)

// outcome is one query's answer as the client saw it.
type outcome struct {
	served     bool
	responseUs int64 // the model response time
	latencyUs  int64 // the serve layer's submit-to-recorded time
}

// refusal reports whether status is one of the front end's explicit
// backpressure or degradation answers, which count against served_share
// rather than as wrong answers.
func refusal(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// checkAnswer parses one answer and checks it against its request,
// returning one outcome per query the request carried. A refusal is an
// outcome; a malformed answer, any other status, or a served answer that
// breaks the model is an error.
func (w *workload) checkAnswer(r *request, status int, body []byte) ([]outcome, error) {
	if w.batch == 0 {
		o, err := checkQuery(status, body, r.sizes[0])
		return []outcome{o}, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("envelope answered %d: %s", status, body)
	}
	var sr httpd.SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, fmt.Errorf("envelope answer: %w", err)
	}
	if len(sr.Results) != len(r.sizes) {
		return nil, fmt.Errorf("envelope of %d queries answered %d items", len(r.sizes), len(sr.Results))
	}
	out := make([]outcome, len(r.sizes))
	for i, it := range sr.Results {
		var err error
		switch {
		case it.Status == http.StatusOK && it.Query != nil:
			out[i], err = checkServed(it.Query, r.sizes[i])
		case refusal(it.Status) && it.Err != nil:
		default:
			err = fmt.Errorf("status %d with query %v, error %v", it.Status, it.Query, it.Err)
		}
		if err != nil {
			return nil, fmt.Errorf("envelope item %d: %w", i, err)
		}
	}
	return out, nil
}

func checkQuery(status int, body []byte, buckets int) (outcome, error) {
	switch {
	case status == http.StatusOK:
		var qr httpd.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			return outcome{}, fmt.Errorf("answer: %w", err)
		}
		return checkServed(&qr, buckets)
	case refusal(status):
		var er httpd.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			return outcome{}, fmt.Errorf("refusal %d without an error body: %q", status, body)
		}
		return outcome{}, nil
	}
	return outcome{}, fmt.Errorf("answered %d: %s", status, body)
}

// checkServed checks one served query against the model: it finished no
// earlier than its response time, which is positive unless every bucket
// was dropped, and it dropped no more buckets than it asked for.
func checkServed(qr *httpd.QueryResponse, buckets int) (outcome, error) {
	switch {
	case qr.Dropped < 0 || qr.Dropped > buckets:
		return outcome{}, fmt.Errorf("dropped %d of %d buckets", qr.Dropped, buckets)
	case qr.ResponseTimeUs <= 0 && qr.Dropped < buckets:
		return outcome{}, fmt.Errorf("response_time_us %d with %d of %d buckets retrieved", qr.ResponseTimeUs, buckets-qr.Dropped, buckets)
	case qr.FinishUs < qr.ResponseTimeUs:
		return outcome{}, fmt.Errorf("finish_us %d before response_time_us %d", qr.FinishUs, qr.ResponseTimeUs)
	case qr.LatencyUs < 0:
		return outcome{}, fmt.Errorf("negative latency_us %d", qr.LatencyUs)
	}
	return outcome{served: true, responseUs: qr.ResponseTimeUs, latencyUs: qr.LatencyUs}, nil
}

// scheduleSample is one live schedule copied out of the serving worker,
// with the failure mask it was solved under.
type scheduleSample struct {
	prob  retrieval.Problem
	sched retrieval.Schedule
	mask  *retrieval.DiskMask
}

// checkSchedule checks a sampled live schedule: it is a valid (possibly
// partial) assignment that drops exactly the buckets whose every replica
// is on a failed disk, and its response time equals an independent solve
// of the same problem by the black-box binary search, which conserves no
// flow between its max-flow runs.
func checkSchedule(s *scheduleSample) error {
	var dead []int
	for i, reps := range s.prob.Replicas {
		alive := false
		for _, d := range reps {
			alive = alive || !s.mask.Failed(d)
		}
		if !alive {
			dead = append(dead, i)
		}
	}
	if err := s.prob.ValidatePartialSchedule(&s.sched, dead); err != nil {
		return err
	}
	ref := &retrieval.Result{}
	if err := allowPartial(retrieval.NewPRBinaryBlackBox().SolveMaskedInto(&s.prob, s.mask, ref)); err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}
	if ref.Schedule.ResponseTime != s.sched.ResponseTime {
		return fmt.Errorf("response time %v, independent solve %v", s.sched.ResponseTime, ref.Schedule.ResponseTime)
	}
	return nil
}
