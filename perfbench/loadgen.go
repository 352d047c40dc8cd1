package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// senders is the generator's concurrency: at most two sending goroutines,
// each owning one keep-alive connection, so the generator never takes
// more than one of the host's two cores from the server.
const senders = 2

// sample is one request's timeline and checked answer. Times are
// relative to the phase start.
type sample struct {
	req      int           // index into the phase's requests
	id       int64         // X-Request-Id
	due      time.Duration // open loop: when it was due; closed loop: when sent
	sent     time.Duration
	done     time.Duration
	waited   bool      // open loop: it fell due while every connection was busy
	status   int       // 0 when the request never got an answer
	outcomes []outcome // one per query; nil when never answered
}

// checker parses and checks one answer to request req, returning one
// outcome per query it carried. The generator checks each answer as it
// lands, so answer bodies are not kept.
type checker func(req, status int, body []byte) ([]outcome, error)

// latency is the request's time from when it was due to the last byte of
// its answer.
func (s *sample) latency() time.Duration { return s.done - s.due }

// conn is one keep-alive HTTP/1.1 connection to the front end.
type conn struct {
	addr, path string
	c          net.Conn
	br         *bufio.Reader
	buf        []byte
}

func dial(addr, path string) (*conn, error) {
	c := &conn{addr: addr, path: path}
	return c, c.redial()
}

func (c *conn) redial() error {
	if c.c != nil {
		_ = c.c.Close() // replacing a broken connection
	}
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", c.addr, err)
	}
	c.c, c.br = nc, bufio.NewReaderSize(nc, 16<<10)
	return nil
}

func (c *conn) close() {
	if c.c != nil {
		_ = c.c.Close() // the phase is over; nothing is in flight
	}
}

// do sends one request with the given id and body and reads the whole
// answer.
func (c *conn) do(id int64, body []byte) (int, []byte, error) {
	c.buf = header(c.buf[:0], c.path, id, len(body))
	c.buf = append(c.buf, body...)
	if _, err := c.c.Write(c.buf); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; closing a drained body cannot fail usefully
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// send runs one request on the connection, stamps its timeline and
// checks its answer. A transport error leaves the sample unanswered and
// replaces the connection, so later requests still go out; a wrong answer
// is returned.
func (c *conn) send(s *sample, body []byte, t0 time.Time, ids *atomic.Int64, check checker) error {
	s.id = ids.Add(1)
	s.sent = time.Since(t0)
	status, answer, err := c.do(s.id, body)
	s.done = time.Since(t0)
	if err != nil {
		return c.redial()
	}
	s.status = status
	if s.outcomes, err = check(s.req, status, answer); err != nil {
		return fmt.Errorf("%w: request %d: %v", errIncorrect, s.id, err)
	}
	return nil
}

func dialAll(addr, path string) ([]*conn, error) {
	cs := make([]*conn, 0, senders)
	for i := 0; i < senders; i++ {
		c, err := dial(addr, path)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

// openLoop sends bodies[i] when due[i] has elapsed since the phase start,
// over the sending connections. Each request is timed from its due time,
// so a stall is charged to every request queued behind it. It returns one
// sample per request and the phase start the sample times count from.
func openLoop(addr, path string, bodies [][]byte, due []time.Duration, ids *atomic.Int64, check checker) ([]sample, time.Time, error) {
	cs, err := dialAll(addr, path)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer closeAll(cs)
	samples := make([]sample, len(bodies))
	var next atomic.Int64
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for g, c := range cs {
		wg.Add(1)
		go func(g int, c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				s := &samples[i]
				s.req, s.due = i, due[i]
				if wait := time.Until(t0.Add(due[i])); wait > 0 {
					time.Sleep(wait)
				} else {
					s.waited = true
				}
				if err := c.send(s, bodies[i], t0, ids, check); err != nil {
					errs[g] = err
					return
				}
			}
		}(g, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, time.Time{}, err
		}
	}
	return samples, t0, nil
}

// tally is what a closed loop keeps of its requests: counts, not samples,
// so the generator's memory does not grow with the server's throughput.
type tally struct {
	requests int           // requests sent
	served   int           // queries answered 200
	last     time.Duration // when the last answer landed, from the start
}

// closedLoop keeps one request outstanding per connection: each sender
// posts its next request when the previous answer lands, cycling through
// bodies, until span has elapsed or limit requests have been sent (limit
// <= 0 means no limit).
func closedLoop(addr, path string, bodies [][]byte, span time.Duration, limit int, ids *atomic.Int64, check checker) (tally, error) {
	cs, err := dialAll(addr, path)
	if err != nil {
		return tally{}, err
	}
	defer closeAll(cs)
	per := make([]tally, len(cs))
	errs := make([]error, len(cs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for g, c := range cs {
		wg.Add(1)
		go func(g int, c *conn) {
			defer wg.Done()
			t := &per[g]
			for time.Since(t0) < span {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				s := sample{req: i % len(bodies)}
				err := c.send(&s, bodies[s.req], t0, ids, check)
				t.requests++
				t.last = max(t.last, s.done)
				for _, o := range s.outcomes {
					if o.served {
						t.served++
					}
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g, c)
	}
	wg.Wait()
	var sum tally
	for g, t := range per {
		if errs[g] != nil {
			return tally{}, errs[g]
		}
		sum.requests += t.requests
		sum.served += t.served
		sum.last = max(sum.last, t.last)
	}
	return sum, nil
}
