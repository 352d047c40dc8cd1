package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRunDrainsOnSIGTERM starts the server on a loopback port, serves one
// query, then sends the test process SIGTERM. run must drain, report it,
// return nil and leave the listener closed. The signal cannot reach the
// default handler: run registers for it before the listener serves, and
// the test signals only after /healthz has answered.
func TestRunDrainsOnSIGTERM(t *testing.T) {
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-n", "8", "-workers", "2"}, pw)
		pw.Close()
	}()

	// Read stderr to EOF: hand over the listen address as soon as it is
	// printed, and the whole transcript at the end.
	addrc := make(chan string, 1)
	outc := make(chan string, 1)
	go func() {
		var out strings.Builder
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			out.WriteString(line + "\n")
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				addrc <- addr
			}
		}
		outc <- out.String()
	}()

	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("run returned before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("no listen address within 30s")
	}
	base := "http://" + addr

	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz not ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(`{"buckets":[0,1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d, want 200", resp.StatusCode)
	}
	http.DefaultClient.CloseIdleConnections()

	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return within 30s of SIGTERM")
	}
	if out := <-outc; !strings.Contains(out, "drained cleanly") {
		t.Fatalf("no clean-drain report in:\n%s", out)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after the drain")
	}
}
