package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"
)

// The server drops a client that never finishes its headers and a
// keep-alive connection left idle, and sets no write timeout. The
// behavioural half runs newServer's own timeouts scaled down, so a limit
// newServer does not set stays unset here too.
func TestServerTimeouts(t *testing.T) {
	srv := newServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(300 * time.Millisecond) // longer than either scaled limit
		io.WriteString(w, "done")
	}))
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v: want both set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Errorf("WriteTimeout %v, ReadTimeout %v: a long /advance must not be cut off", srv.WriteTimeout, srv.ReadTimeout)
	}
	srv.ReadHeaderTimeout /= 100
	srv.IdleTimeout /= 1200
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	// closed reports whether the server hangs up on c within a few seconds.
	closed := func(c net.Conn) bool {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := io.Copy(io.Discard, c)
		return err == nil // EOF: the server closed it
	}

	slow := dial()
	io.WriteString(slow, "GET / HTTP/1.1\r\nHost: x\r\n") // headers never end
	if !closed(slow) {
		t.Error("a client that never finished its headers kept its connection")
	}

	idle := dial()
	io.WriteString(idle, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(idle), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil || string(body) != "done" {
		t.Fatalf("a request longer than the scaled limits answered %q, %v", body, err)
	}
	if !closed(idle) {
		t.Error("an idle keep-alive connection was kept open")
	}
}

// On a signal, run stops accepting, waits for the request in flight, and
// only then shuts the controller down, under d.mu. The test holds d.mu
// across the whole shutdown and a request in flight (/block) blocks until
// the test lets it go, so each step is seen to wait for the one before.
func TestRunShutsDownOnSignal(t *testing.T) {
	d, err := newDaemon(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	mux := d.mux()
	mux.HandleFunc("/block", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- d.run(newServer(mux), ln, sig) }()
	url := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}
	for _, r := range []struct {
		path string
		want int
	}{
		{"/servers?customer=alice", http.StatusCreated},
		{"/servers?customer=bob", http.StatusCreated},
		{"/advance?d=30m", http.StatusOK},
	} {
		resp, err := client.Post(url+r.path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		decode(t, resp, r.want, nil)
	}
	running := func() (n int) {
		for _, v := range d.ctrl.ListVMs() {
			if v.Phase == "running" {
				n++
			}
		}
		return n
	}
	d.mu.Lock()
	n := running()
	d.mu.Unlock()
	if n != 2 {
		t.Fatalf("%d VMs running before the signal, want 2", n)
	}
	// stopped reports whether run returned within wait.
	stopped := func(wait time.Duration) bool {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run: %v", err)
			}
			return true
		case <-time.After(wait):
			return false
		}
	}

	inflight := make(chan string, 1)
	go func() {
		var body []byte
		resp, err := client.Get(url + "/block")
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			t.Error(err)
		}
		inflight <- string(body)
	}()
	<-entered
	d.mu.Lock()
	sig <- syscall.SIGTERM
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			break // the listener is closed
		}
		c.Close()
		if time.Now().After(deadline) {
			d.mu.Unlock()
			t.Fatal("still accepting connections after the signal")
		}
	}
	if stopped(100 * time.Millisecond) {
		d.mu.Unlock()
		t.Fatal("run returned with a request in flight")
	}
	close(release)
	if body := <-inflight; body != "done" {
		t.Errorf("the request in flight answered %q", body)
	}
	// The server has drained; the controller's shutdown waits for d.mu.
	early := stopped(300 * time.Millisecond)
	n = running()
	d.mu.Unlock()
	if early {
		t.Fatal("run shut the controller down without d.mu")
	}
	if n != 2 {
		t.Errorf("%d VMs running while the test held d.mu, want 2", n)
	}
	if !stopped(10 * time.Second) {
		t.Fatal("run did not return after the signal")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := running(); n != 0 {
		t.Errorf("%d VMs still running after shutdown", n)
	}
}
