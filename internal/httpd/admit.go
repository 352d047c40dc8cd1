package httpd

import (
	"context"
	"errors"
	"sync"
	"time"
)

// errEvicted is the cancellation cause the drop-latest-deadline policy
// plants when it sheds an in-flight request to admit a more urgent one;
// the victim's handler reads it back through context.Cause to tell an
// eviction (503, server's choice) from a client disconnect (abandoned).
var errEvicted = errors.New("httpd: evicted by drop-latest-deadline shedding")

// Policy selects what the overload controller sheds once the admission
// window is full or the latency/queue thresholds trip.
type Policy uint8

const (
	// RejectNew sheds the newcomer: requests already admitted keep their
	// slots, arriving work is turned away with 503 + Retry-After. The
	// conservative default — admitted work always completes.
	RejectNew Policy = iota
	// DropLatestDeadline sheds the admitted request that can best afford
	// it: the one with the farthest deadline (no deadline counts as
	// farthest). If the newcomer's own deadline is the farthest, the
	// newcomer is rejected instead. Urgent work displaces patient work.
	DropLatestDeadline
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case RejectNew:
		return "reject-new"
	case DropLatestDeadline:
		return "drop-latest-deadline"
	}
	return "?"
}

// ParsePolicy maps the CLI/config spelling onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "reject-new", "":
		return RejectNew, nil
	case "drop-latest-deadline":
		return DropLatestDeadline, nil
	}
	return 0, errors.New("httpd: unknown shed policy " + s + " (want reject-new or drop-latest-deadline)")
}

// entry is one admitted request's controller record.
type entry struct {
	id int64
	// deadline is the absolute budget end; the zero time means none and
	// sorts as the farthest (most patient) deadline.
	deadline time.Time
	cancel   context.CancelCauseFunc
}

// admitter is the admission window: a bounded set of in-flight requests
// with the shed policy applied at the boundary. It bounds the work the
// handlers can have outstanding regardless of how many sockets the HTTP
// listener accepts.
type admitter struct {
	capacity int
	policy   Policy

	mu sync.Mutex
	// entries and nextID are guarded by mu.
	entries map[int64]*entry
	nextID  int64
}

func newAdmitter(capacity int, policy Policy) *admitter {
	return &admitter{capacity: capacity, policy: policy, entries: make(map[int64]*entry, capacity)}
}

// depth is the current in-flight count.
func (a *admitter) depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.entries)
}

// acquire tries to admit a request with the given absolute deadline
// (zero = none). On success it returns the slot id to release later.
// When the window is full — or the caller reports an overload trigger
// (queue depth, p99) fired — the policy decides: RejectNew fails the
// newcomer; DropLatestDeadline cancels (with errEvicted) the most
// patient admitted entry — unless the newcomer is the most patient, in
// which case the newcomer fails. Under an overload trigger with spare
// capacity the drop policy still evicts, so admission degrades to
// one-in-one-out instead of piling more work onto a struggling backend.
// The victim's handler counts the eviction when it answers (see
// Server.interrupted), since its result may still win the race.
func (a *admitter) acquire(deadline time.Time, cancel context.CancelCauseFunc, overloaded bool) (id int64, ok bool) {
	id, victim, ok := a.admit(deadline, cancel, overloaded)
	if victim != nil {
		// Cancel outside the lock: the cause fans out to the victim's
		// handler and possibly a serve-side pickup rejection.
		victim.cancel(errEvicted)
	}
	return id, ok
}

// admit is acquire's table mutation under the lock; the returned victim
// (if any) has been removed from the table but not yet canceled.
func (a *admitter) admit(deadline time.Time, cancel context.CancelCauseFunc, overloaded bool) (int64, *entry, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var victim *entry
	if overloaded || len(a.entries) >= a.capacity {
		if a.policy == RejectNew {
			return 0, nil, false
		}
		victim = a.latest()
		if victim == nil || !later(victim.deadline, deadline) {
			// The newcomer is at least as patient as every admitted
			// request: shedding it is the policy's own choice.
			return 0, nil, false
		}
		delete(a.entries, victim.id)
	}
	a.nextID++
	id := a.nextID
	a.entries[id] = &entry{id: id, deadline: deadline, cancel: cancel}
	return id, victim, true
}

// release frees a slot; idempotent for slots already evicted.
func (a *admitter) release(id int64) {
	a.mu.Lock()
	delete(a.entries, id)
	a.mu.Unlock()
}

// latest returns the admitted entry with the farthest deadline; called
// with mu held.
//
//imflow:locked(mu)
func (a *admitter) latest() *entry {
	var out *entry
	for _, e := range a.entries {
		if out == nil || later(e.deadline, out.deadline) {
			out = e
		}
	}
	return out
}

// later reports whether deadline a is strictly farther out than b, with
// the zero time meaning "no deadline" and therefore farthest of all.
func later(a, b time.Time) bool {
	switch {
	case a.IsZero():
		return !b.IsZero()
	case b.IsZero():
		return false
	default:
		return a.After(b)
	}
}
