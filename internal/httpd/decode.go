package httpd

import (
	"bytes"
	"fmt"
	"math"
	"time"
)

// Limits bound what a request may ask for. Every bound exists to keep a
// hostile or confused client from turning the decoder into an allocation
// amplifier. The byte budget caps what is read off the wire; the decoder
// then enforces the count bounds while it scans, so an oversized array is
// refused at the first id past its bound, and the ids the decoder holds
// are bounded by the body and by the count bounds, whichever is smaller.
type Limits struct {
	// MaxBodyBytes caps the request body read off the wire. <= 0 means 1 MiB.
	MaxBodyBytes int64
	// MaxBuckets caps the buckets (or replica lists) in one query. <= 0 means 4096.
	MaxBuckets int
	// MaxReplicas caps the replica list length per bucket. <= 0 means 8.
	MaxReplicas int
	// MaxBatch caps the queries in one /v1/submit batch. <= 0 means 256.
	MaxBatch int
	// Buckets, when positive, is the exclusive bucket-id bound (the
	// allocation's bucket count); ids outside [0, Buckets) are rejected.
	Buckets int
	// Disks, when positive, is the exclusive disk-id bound for raw
	// replica lists.
	Disks int
	// MaxDeadline caps the per-request deadline budget. <= 0 means 1 minute.
	MaxDeadline time.Duration
}

func (l Limits) withDefaults() Limits {
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = 1 << 20
	}
	if l.MaxBuckets <= 0 {
		l.MaxBuckets = 4096
	}
	if l.MaxReplicas <= 0 {
		l.MaxReplicas = 8
	}
	if l.MaxBatch <= 0 {
		l.MaxBatch = 256
	}
	if l.MaxDeadline <= 0 {
		l.MaxDeadline = time.Minute
	}
	return l
}

// QueryRequest is the wire form of one retrieval query. Exactly one of
// Buckets (ids resolved through the server's allocation) or Replicas
// (pre-resolved global disk ids per bucket) must be set. DeadlineMs,
// when positive, is the total budget for the request, queueing included;
// the X-Deadline-Ms header is an alternative carrier, with the body
// field winning when both are present.
type QueryRequest struct {
	Buckets    []int   `json:"buckets,omitempty"`
	Replicas   [][]int `json:"replicas,omitempty"`
	DeadlineMs int64   `json:"deadline_ms,omitempty"`
}

// SubmitRequest is the wire form of a query batch: the items are
// dispatched to one shard together so the serving worker coalesces them
// into one admission batch.
type SubmitRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// DecodeQuery parses and validates one QueryRequest. Any error is a
// client error (HTTP 400); the decoder never panics on hostile input,
// which the fuzz harness asserts.
func DecodeQuery(data []byte, lim Limits) (QueryRequest, error) {
	d := newDecoder(data, lim.withDefaults(), 1)
	d.ws()
	q, err := d.query()
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return QueryRequest{}, err
	}
	return q, nil
}

// DecodeSubmit parses and validates a SubmitRequest batch.
func DecodeSubmit(data []byte, lim Limits) (SubmitRequest, error) {
	lim = lim.withDefaults()
	d := newDecoder(data, lim, lim.MaxBatch)
	d.ws()
	s, err := d.submit()
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return SubmitRequest{}, err
	}
	if len(s.Queries) == 0 {
		return SubmitRequest{}, fmt.Errorf("httpd: empty batch")
	}
	return s, nil
}

// decoder is the one-pass scanner behind DecodeQuery and DecodeSubmit. It
// reads exactly the wire schema: the documented keys, byte for byte and
// at most once per object, and null where a field may be absent. A key
// that differs by case or spells a letter as an escape is an unknown
// field, and anything after the one top-level object but JSON whitespace
// is trailing data. Ids are range-checked and counted as they are read,
// and every decoded id list is a window of one slab sized before the
// scan, so a well-formed query costs one allocation however many ids it
// carries.
type decoder struct {
	data  []byte
	pos   int
	lim   Limits
	batch int     // the most queries the body may hold
	ids   []int   // the slab every decoded id list is a window of
	lists [][]int // the slab every replica table is a window of, made on first use
}

// newDecoder sizes the id slab for a body holding up to batch queries.
// Every id either opens its array or follows a comma, so those two byte
// counts bound the ids in the body, and the count limits cap the slab at
// what a legal body can fill.
func newDecoder(data []byte, lim Limits, batch int) decoder {
	n := bytes.Count(data, []byte{','}) + bytes.Count(data, []byte{'['})
	return decoder{
		data:  data,
		lim:   lim,
		batch: batch,
		ids:   make([]int, 0, min(n, satMul(batch, satMul(lim.MaxBuckets, lim.MaxReplicas)))),
	}
}

// satMul is a*b for positive a and b, saturating at math.MaxInt.
func satMul(a, b int) int {
	if a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// queryFields are QueryRequest's wire keys, in field order.
var queryFields = []string{"buckets", "replicas", "deadline_ms"}

// submitFields are SubmitRequest's.
var submitFields = []string{"queries"}

// query scans one QueryRequest object and validates it.
func (d *decoder) query() (QueryRequest, error) {
	var q QueryRequest
	var seen [3]bool
	more, err := d.open('{', '}')
	for ; more && err == nil; more, err = d.more('}') {
		var f int
		if f, err = d.field(queryFields, seen[:]); err != nil {
			break
		}
		if d.null() {
			continue
		}
		switch f {
		case 0:
			q.Buckets, err = d.idArray(d.lim.MaxBuckets, d.lim.Buckets, "bucket")
		case 1:
			q.Replicas, err = d.replicas()
		default:
			q.DeadlineMs, err = d.int()
		}
		if err != nil {
			break
		}
	}
	if err == nil {
		err = q.validate(d.lim)
	}
	if err != nil {
		return QueryRequest{}, err
	}
	return q, nil
}

// submit scans one SubmitRequest object, validating each query as it
// completes.
func (d *decoder) submit() (SubmitRequest, error) {
	var s SubmitRequest
	var seen [1]bool
	more, err := d.open('{', '}')
	for ; more && err == nil; more, err = d.more('}') {
		if _, err = d.field(submitFields, seen[:]); err != nil {
			break
		}
		if d.null() {
			continue
		}
		if s.Queries, err = d.queries(); err != nil {
			break
		}
	}
	if err != nil {
		return SubmitRequest{}, err
	}
	return s, nil
}

// queries scans a batch's query array.
func (d *decoder) queries() ([]QueryRequest, error) {
	// Every query opens with a brace.
	qs := make([]QueryRequest, 0, min(bytes.Count(d.data[d.pos:], []byte{'{'}), d.lim.MaxBatch))
	more, err := d.open('[', ']')
	for ; more && err == nil; more, err = d.more(']') {
		if len(qs) == d.lim.MaxBatch {
			return nil, fmt.Errorf("httpd: batch exceeds the %d-query limit", d.lim.MaxBatch)
		}
		var q QueryRequest
		if q, err = d.query(); err != nil {
			return nil, fmt.Errorf("query %d: %w", len(qs), err)
		}
		qs = append(qs, q)
	}
	return qs, err
}

// replicas scans a replica table: an array of at most MaxBuckets
// non-empty disk-id arrays, each of at most MaxReplicas ids in range.
func (d *decoder) replicas() ([][]int, error) {
	if d.lists == nil {
		// Every replica list opens with a bracket.
		d.lists = make([][]int, 0, min(bytes.Count(d.data[d.pos:], []byte{'['}), satMul(d.batch, d.lim.MaxBuckets)))
	}
	start := len(d.lists)
	more, err := d.open('[', ']')
	for ; more && err == nil; more, err = d.more(']') {
		i := len(d.lists) - start
		if i == d.lim.MaxBuckets {
			return nil, fmt.Errorf("httpd: over %d replica lists exceeds the limit", d.lim.MaxBuckets)
		}
		var reps []int
		if reps, err = d.idArray(d.lim.MaxReplicas, d.lim.Disks, "disk"); err != nil {
			return nil, fmt.Errorf("httpd: bucket %d: %w", i, err)
		}
		d.lists = append(d.lists, reps)
	}
	if err != nil {
		return nil, err
	}
	return d.lists[start:len(d.lists):len(d.lists)], nil
}

// idArray scans an array of at most max ids, each in [0, bound) when
// bound is positive, into the slab and returns its window. An empty
// array decodes to an empty, non-nil window, as encoding/json decodes it.
func (d *decoder) idArray(max, bound int, noun string) ([]int, error) {
	start := len(d.ids)
	more, err := d.open('[', ']')
	for ; more && err == nil; more, err = d.more(']') {
		if len(d.ids)-start == max {
			return nil, fmt.Errorf("httpd: over %d %s ids exceeds the limit", max, noun)
		}
		var v int64
		if v, err = d.int(); err != nil {
			return nil, err
		}
		if v < 0 || (bound > 0 && v >= int64(bound)) {
			return nil, fmt.Errorf("httpd: %s id %d outside [0,%d)", noun, v, bound)
		}
		d.ids = append(d.ids, int(v))
	}
	if err != nil {
		return nil, err
	}
	return d.ids[start:len(d.ids):len(d.ids)], nil
}

// open consumes the opening byte of an array or object and reports
// whether an element follows before the closing byte, which it consumes
// when none does.
func (d *decoder) open(opening, closing byte) (bool, error) {
	if err := d.expect(opening); err != nil {
		return false, err
	}
	if d.ws(); d.peek() == closing {
		d.pos++
		return false, nil
	}
	return true, nil
}

// more consumes what follows an element: a comma, reporting that another
// element follows, or the closing byte.
func (d *decoder) more(closing byte) (bool, error) {
	switch d.ws(); d.peek() {
	case ',':
		d.pos++
		d.ws()
		return true, nil
	case closing:
		d.pos++
		return false, nil
	}
	return false, d.expected(',', closing)
}

// field scans an object key and its colon, and returns the key's index in
// names. A key not in names, or one already marked in seen, is refused.
func (d *decoder) field(names []string, seen []bool) (int, error) {
	key, err := d.key()
	if err != nil {
		return 0, err
	}
	for i, name := range names {
		if string(key) != name {
			continue
		}
		if seen[i] {
			return 0, fmt.Errorf("httpd: bad request body: duplicate field %q", key)
		}
		seen[i] = true
		d.ws()
		if err := d.expect(':'); err != nil {
			return 0, err
		}
		d.ws()
		return i, nil
	}
	return 0, fmt.Errorf("httpd: bad request body: unknown field %q", key)
}

// key scans an object key and returns its raw bytes. A key holding an
// escape names no field, so it is refused here rather than decoded.
func (d *decoder) key() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start := d.pos
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], nil
		case c == '\\':
			return nil, fmt.Errorf("httpd: bad request body: unknown field: escaped key at offset %d", start-1)
		case c < 0x20:
			return nil, d.syntax("a key")
		}
	}
	return nil, d.syntax("a key")
}

// int scans a JSON number that must be an integer in the int64 range. A
// fraction or an exponent is refused even when its value is integral, as
// encoding/json refuses it for an integer field.
func (d *decoder) int() (int64, error) {
	at := d.pos
	neg := d.peek() == '-'
	if neg {
		d.pos++
	}
	start := d.pos
	var u uint64
	for ; d.pos < len(d.data); d.pos++ {
		c := d.data[d.pos]
		if c < '0' || c > '9' {
			break
		}
		if d.pos-start == 19 { // 19 digits hold every int64
			return 0, fmt.Errorf("httpd: bad request body: integer at offset %d overflows int64", at)
		}
		u = u*10 + uint64(c-'0')
	}
	switch n := d.pos - start; {
	case n == 0:
		return 0, d.syntax("a digit")
	case n > 1 && d.data[start] == '0':
		d.pos = start + 1
		return 0, d.syntax("',' or a closing bracket")
	}
	if c := d.peek(); c == '.' || c == 'e' || c == 'E' {
		return 0, fmt.Errorf("httpd: bad request body: number at offset %d is not an integer", at)
	}
	if neg {
		if u > 1<<63 {
			return 0, fmt.Errorf("httpd: bad request body: integer at offset %d overflows int64", at)
		}
		return -int64(u), nil
	}
	if u > math.MaxInt64 {
		return 0, fmt.Errorf("httpd: bad request body: integer at offset %d overflows int64", at)
	}
	return int64(u), nil
}

// null consumes a null literal if one starts here.
func (d *decoder) null() bool {
	if bytes.HasPrefix(d.data[d.pos:], []byte("null")) {
		d.pos += len("null")
		return true
	}
	return false
}

// end refuses any byte but JSON whitespace after the top-level object.
func (d *decoder) end() error {
	if d.ws(); d.pos != len(d.data) {
		return fmt.Errorf("httpd: trailing data after request body at offset %d", d.pos)
	}
	return nil
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for ; d.pos < len(d.data); d.pos++ {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// peek returns the byte at the scan position, 0 at the end of the body.
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// expect consumes the byte c or fails.
func (d *decoder) expect(c byte) error {
	if d.peek() != c {
		return d.expected(c, c)
	}
	d.pos++
	return nil
}

// expected reports that neither a nor b stands at the scan position.
func (d *decoder) expected(a, b byte) error {
	if a == b {
		return d.syntax(fmt.Sprintf("%q", a))
	}
	return d.syntax(fmt.Sprintf("%q or %q", a, b))
}

func (d *decoder) syntax(want string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("httpd: bad request body: unexpected end of input, want %s", want)
	}
	return fmt.Errorf("httpd: bad request body: invalid character %q at offset %d, want %s", d.data[d.pos], d.pos, want)
}

// validate checks what the scan cannot see until the query is complete:
// exactly one query form, a deadline in range and no empty replica list.
// The scan has already bounded every count and range-checked every id.
func (q *QueryRequest) validate(lim Limits) error {
	switch {
	case len(q.Buckets) == 0 && len(q.Replicas) == 0:
		return fmt.Errorf("httpd: query needs buckets or replicas")
	case len(q.Buckets) > 0 && len(q.Replicas) > 0:
		return fmt.Errorf("httpd: buckets and replicas are mutually exclusive")
	}
	if q.DeadlineMs < 0 {
		return fmt.Errorf("httpd: negative deadline_ms %d", q.DeadlineMs)
	}
	if maxMs := lim.MaxDeadline.Milliseconds(); q.DeadlineMs > maxMs {
		return fmt.Errorf("httpd: deadline_ms %d exceeds the %dms limit", q.DeadlineMs, maxMs)
	}
	for i, reps := range q.Replicas {
		if len(reps) == 0 {
			return fmt.Errorf("httpd: bucket %d has no replicas", i)
		}
	}
	return nil
}
