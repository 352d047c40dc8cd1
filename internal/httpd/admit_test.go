package httpd

import (
	"context"
	"testing"
	"time"
)

// cancelRecorder returns a CancelCauseFunc that stores its cause.
func cancelRecorder(cause *error) context.CancelCauseFunc {
	return func(err error) { *cause = err }
}

func TestAdmitterRejectNew(t *testing.T) {
	a := newAdmitter(2, RejectNew)
	var c1, c2, c3 error
	if _, ok := a.acquire(time.Time{}, cancelRecorder(&c1), false); !ok {
		t.Fatal("first acquire failed")
	}
	if _, ok := a.acquire(time.Time{}, cancelRecorder(&c2), false); !ok {
		t.Fatal("second acquire failed")
	}
	if _, ok := a.acquire(time.Time{}, cancelRecorder(&c3), false); ok {
		t.Fatal("over-capacity acquire admitted under reject-new")
	}
	if c1 != nil || c2 != nil {
		t.Fatal("reject-new canceled an admitted request")
	}
}

func TestAdmitterDropLatestDeadline(t *testing.T) {
	a := newAdmitter(2, DropLatestDeadline)
	now := time.Unix(5000, 0)
	var cNone, cFar, cNear, cUrgent error
	// One entry without a deadline (most patient) and one far deadline.
	idNone, _ := a.acquire(time.Time{}, cancelRecorder(&cNone), false)
	a.acquire(now.Add(time.Minute), cancelRecorder(&cFar), false)

	// An urgent newcomer evicts the no-deadline entry.
	if _, ok := a.acquire(now.Add(time.Second), cancelRecorder(&cNear), false); !ok {
		t.Fatal("urgent newcomer rejected, want admit-with-eviction")
	}
	if cNone != errEvicted {
		t.Fatalf("victim cause %v, want errEvicted", cNone)
	}
	if cFar != nil {
		t.Fatal("wrong victim: the far-deadline entry was canceled over the no-deadline one")
	}
	a.release(idNone) // victim's handler releases; idempotent after eviction

	// A newcomer more patient than everyone admitted is itself rejected.
	if _, ok := a.acquire(time.Time{}, cancelRecorder(&cUrgent), false); ok {
		t.Fatal("most-patient newcomer admitted over a full window")
	}
	if a.depth() != 2 {
		t.Fatalf("depth %d, want 2", a.depth())
	}
}

func TestAdmitterOverloadTriggerSheds(t *testing.T) {
	// With the overload flag up, the drop policy evicts even below
	// capacity (one-in-one-out), and reject-new refuses outright.
	a := newAdmitter(16, DropLatestDeadline)
	now := time.Unix(6000, 0)
	var cOld, cNew error
	a.acquire(now.Add(time.Hour), cancelRecorder(&cOld), false)
	if _, ok := a.acquire(now.Add(time.Second), cancelRecorder(&cNew), true); !ok || cOld != errEvicted {
		t.Fatalf("overloaded drop policy: ok=%v cause=%v", ok, cOld)
	}

	r := newAdmitter(16, RejectNew)
	r.acquire(time.Time{}, cancelRecorder(&cOld), false)
	if _, ok := r.acquire(time.Time{}, cancelRecorder(&cNew), true); ok {
		t.Fatal("overloaded reject-new admitted a request below capacity")
	}
}
