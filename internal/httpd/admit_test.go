package httpd

import "testing"

func TestAdmitterRejectNew(t *testing.T) {
	a := newAdmitter(2)
	if !a.acquire() {
		t.Fatal("first acquire failed")
	}
	if !a.acquire() {
		t.Fatal("second acquire failed")
	}
	if a.acquire() {
		t.Fatal("over-capacity acquire admitted under reject-new")
	}
	if a.depth() != 2 {
		t.Fatalf("depth %d after a rejected acquire, want 2", a.depth())
	}
	a.release()
	if !a.acquire() {
		t.Fatal("acquire after a release failed")
	}
}
