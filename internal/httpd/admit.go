package httpd

import "sync"

// Policy names what the front end sheds once the admission window is
// full. RejectNew is its one value. The type and Options.Policy stay only
// because perfbench/server.go names them, as Stats.Retries stays for
// perfbench's reader.
type Policy uint8

// RejectNew sheds the newcomer: requests already admitted keep their
// slots, arriving work is turned away with 503 + Retry-After, so admitted
// work always completes.
const RejectNew Policy = 0

// admitter is the admission window: a bounded count of in-flight
// requests. It bounds the work the handlers can have outstanding
// regardless of how many sockets the HTTP listener accepts.
type admitter struct {
	capacity int

	mu sync.Mutex
	// n is guarded by mu.
	n int
}

func newAdmitter(capacity int) *admitter {
	return &admitter{capacity: capacity}
}

// depth is the current in-flight count.
func (a *admitter) depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// acquire takes a slot, reporting false when the window is full.
func (a *admitter) acquire() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n >= a.capacity {
		return false
	}
	a.n++
	return true
}

// release frees a slot taken by acquire.
func (a *admitter) release() {
	a.mu.Lock()
	a.n--
	a.mu.Unlock()
}
