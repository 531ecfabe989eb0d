package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// startServeListener runs Serve on an OS-assigned port and
// returns the base URL, the cancel that triggers graceful shutdown, and
// the channel carrying its return value. tune lowers the server's
// timeouts (10s for headers, 5s to drain) before it takes traffic.
func startServeListener(t *testing.T, opts Options, tune func(*Server)) (base string, cancel context.CancelFunc, done chan error) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	tune(s)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done = make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	return "http://" + ln.Addr().String(), cancel, done
}

// TestServeListenerHeaderTimeout is the slowloris regression test: a
// client that sends half a header line and stalls must be disconnected
// once readHeaderTimeout elapses. The serving code once built
// http.Server with no timeouts at all, so the connection (and its
// goroutine) lived forever and this test hangs on that code.
func TestServeListenerHeaderTimeout(t *testing.T) {
	base, cancel, done := startServeListener(t, Options{}, func(s *Server) {
		s.readHeaderTimeout = 150 * time.Millisecond
		s.shutdownTimeout = time.Second
	})
	defer func() {
		cancel()
		<-done
	}()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /write HTTP/1.1\r\nHost: sieved\r\nX-Slow")); err != nil {
		t.Fatal(err)
	}
	// The server must act on its own: Go's http.Server answers a
	// header-read timeout with "408 Request Timeout" and closes, so the
	// next read yields bytes or EOF well before our safety deadline. On
	// the old, timeout-less server nothing ever arrives and this read
	// blocks until the deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); isTimeout(err) {
		t.Fatalf("connection still open past readHeaderTimeout (read err: %v)", err)
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestServeListenerShutdownForceClosesStalledWriter pins the shutdown
// ordering fix: when the graceful drain times out because a /write
// client stalls mid-body, the server must force-close that connection
// BEFORE Close() checkpoints and closes the WAL. The old code skipped
// the force-close, so Serve returned with the writer still
// connected — this test fails there on the conn-severed assertion.
func TestServeListenerShutdownForceClosesStalledWriter(t *testing.T) {
	base, cancel, done := startServeListener(t, Options{
		DataDir:       t.TempDir(),
		Fsync:         "never",
		FlushInterval: -1,
	}, func(s *Server) { s.shutdownTimeout = 200 * time.Millisecond })
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Full headers, half the promised body: the handler blocks reading.
	if _, err := conn.Write([]byte("POST /write HTTP/1.1\r\nHost: sieved\r\nContent-Length: 64\r\n\r\nweb,metric=")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the handler enter the body read
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return: shutdown hangs on the stalled writer")
	}
	// The stalled connection must be dead: no late body delivery can
	// reach a checkpointed, closed store.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil || isTimeout(err) {
		t.Fatalf("stalled writer still connected after shutdown returned (read err: %v)", err)
	}
}

// TestClientAckHeaderDiagnostics pins the missing-vs-malformed split: a
// 2xx response without the ack header and one with a garbage value must
// produce different errors, the latter naming the offending value. The
// old code reported both as "missing X-Sieve-Samples ack header".
func TestClientAckHeaderDiagnostics(t *testing.T) {
	var header string
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if header != "" {
			w.Header().Set("X-Sieve-Samples", header)
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer hs.Close()
	c := NewClient(hs.URL)

	header = ""
	_, err := c.Write([]byte("web,metric=cpu value=0.5 500"))
	if err == nil || !strings.Contains(err.Error(), "missing X-Sieve-Samples") {
		t.Fatalf("missing header: got %v, want a missing-header error", err)
	}

	header = "not-a-number"
	_, err = c.Write([]byte("web,metric=cpu value=0.5 500"))
	if err == nil || !strings.Contains(err.Error(), "malformed X-Sieve-Samples") ||
		!strings.Contains(err.Error(), `"not-a-number"`) {
		t.Fatalf("malformed header: got %v, want a malformed-header error naming the value", err)
	}

	header = "7"
	n, err := c.Write([]byte("web,metric=cpu value=0.5 500"))
	if err != nil || n != 7 {
		t.Fatalf("valid header: got %d, %v", n, err)
	}
}

// TestServeListenerGracefulShutdownStillDrains pins that the force-close
// path did not break the normal case: an idle server shuts down
// gracefully, closes its store, and a fresh boot recovers the data.
func TestServeListenerGracefulShutdownStillDrains(t *testing.T) {
	dir := t.TempDir()
	base, cancel, done := startServeListener(t, Options{
		DataDir: dir, Fsync: "never", FlushInterval: -1,
	}, func(s *Server) { s.shutdownTimeout = 2 * time.Second })
	c := NewClient(base)
	if _, err := c.Write([]byte("web,metric=cpu value=0.5 500")); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The graceful path checkpointed: a fresh server on the same dir
	// serves the point.
	s2, err := New(Options{DataDir: dir, Fsync: "never", FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pts, err := readSeries(s2, "web", "cpu")
	if err != nil || len(pts) != 1 {
		t.Fatalf("recovered %d points, err %v; want 1", len(pts), err)
	}
}
