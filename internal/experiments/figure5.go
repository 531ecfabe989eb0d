package experiments

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"github.com/sieve-microservices/sieve/internal/trace"
)

// tracedConn instruments a net.Conn: every Read/Write is reported to a
// syscall tracer and/or packet capturer, the per-event work sysdig and
// tcpdump perform in the paper's Fig. 5 comparison.
type tracedConn struct {
	net.Conn
	process string
	tracer  *trace.Tracer
	pcap    *trace.PacketCapture
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.observe(trace.EventRead, p[:n])
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.observe(trace.EventWrite, p[:n])
	}
	return n, err
}

func (c *tracedConn) observe(t trace.EventType, payload []byte) {
	now := time.Now().UnixMilli()
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{
			TimeMS:  now,
			Process: c.process,
			Type:    t,
			Local:   c.LocalAddr().String(),
			Remote:  c.RemoteAddr().String(),
			Bytes:   len(payload),
		})
	}
	if c.pcap != nil {
		c.pcap.Capture(trace.Packet{
			TimeMS:  now,
			Src:     c.RemoteAddr().String(),
			Dst:     c.LocalAddr().String(),
			Payload: payload,
		})
	}
}

// tracedListener wraps accepted connections with tracedConn.
type tracedListener struct {
	net.Listener
	tracer *trace.Tracer
	pcap   *trace.PacketCapture
}

func (l *tracedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.tracer != nil {
		l.tracer.Emit(trace.Event{
			TimeMS:  time.Now().UnixMilli(),
			Process: "nginx",
			Type:    trace.EventAccept,
			Local:   conn.LocalAddr().String(),
			Remote:  conn.RemoteAddr().String(),
		})
	}
	return &tracedConn{Conn: conn, process: "nginx", tracer: l.tracer, pcap: l.pcap}, nil
}

// runHTTPBenchmark serves a small static file and issues sequential GET
// requests against it (the paper's Apache-Benchmark-on-nginx setup),
// returning the total completion time.
func runHTTPBenchmark(requests int, tracer *trace.Tracer, pcap *trace.PacketCapture) (time.Duration, error) {
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	var ln net.Listener = base
	if tracer != nil || pcap != nil {
		ln = &tracedListener{Listener: base, tracer: tracer, pcap: pcap}
	}

	static := []byte(strings.Repeat("sieve", 120)) // ~600-byte static file
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		_, _ = w.Write(static)
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	url := "http://" + base.Addr().String() + "/file"

	start := time.Now()
	for i := 0; i < requests; i++ {
		resp, err := client.Get(url)
		if err != nil {
			return 0, fmt.Errorf("request %d: %w", i, err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			_ = resp.Body.Close()
			return 0, err
		}
		_ = resp.Body.Close()
	}
	return time.Since(start), nil
}

// Figure5 regenerates Fig. 5: completion time for 10k HTTP requests to a
// static file under no tracing, sysdig-style syscall tracing, and
// tcpdump-style packet capture. The paper measured 22% overhead for
// sysdig and 7% for tcpdump on its testbed; the shape to preserve is
// that both tracers cost measurably more than native and that the
// syscall tracer buys full process context for its extra work.
func (s *Suite) Figure5() (*Result, error) {
	requests := s.cfg.HTTPRequests

	// Warm the stack once so the first measurement isn't penalized.
	if _, err := runHTTPBenchmark(requests/10+1, nil, nil); err != nil {
		return nil, err
	}

	native, err := runHTTPBenchmark(requests, nil, nil)
	if err != nil {
		return nil, err
	}

	tracer := trace.NewTracer(1<<16, func(e *trace.Event) bool { return true })
	sysdig, err := runHTTPBenchmark(requests, tracer, nil)
	if err != nil {
		return nil, err
	}

	pcap := trace.NewPacketCapture(96) // tcpdump default snaplen era: headers only
	tcpdump, err := runHTTPBenchmark(requests, nil, pcap)
	if err != nil {
		return nil, err
	}

	overhead := func(d time.Duration) float64 {
		return (d.Seconds()/native.Seconds() - 1) * 100
	}

	ts, ps := tracer.Stats(), pcap.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: completion time for %d HTTP requests (static file)\n", requests)
	fmt.Fprintf(&b, "Mode      Time [s]   Overhead vs native\n")
	fmt.Fprintf(&b, "native    %8.3f   -\n", native.Seconds())
	fmt.Fprintf(&b, "sysdig    %8.3f   %+.1f%%  (%d events, %d KB encoded)\n",
		sysdig.Seconds(), overhead(sysdig), ts.Observed, ts.EncodedBytes/1024)
	fmt.Fprintf(&b, "tcpdump   %8.3f   %+.1f%%  (%d records, %d KB captured)\n",
		tcpdump.Seconds(), overhead(tcpdump), ps.Records, ps.Bytes/1024)
	b.WriteString("(paper: sysdig +22%, tcpdump +7%; sysdig's extra cost buys process context)\n")

	// The overheads are wall-clock ratios and move with machine load; the
	// work each tracer did is counted, and fixed by the request count.
	return &Result{
		ID:    "figure5",
		Title: "Call-graph tracing overhead",
		Text:  b.String(),
		Values: map[string]float64{
			"native_seconds":       native.Seconds(),
			"sysdig_overhead_pct":  overhead(sysdig),
			"tcpdump_overhead_pct": overhead(tcpdump),
			"sysdig_events":        float64(ts.Observed),
			"sysdig_encoded_bytes": float64(ts.EncodedBytes),
			"tcpdump_records":      float64(ps.Records),
			"tcpdump_bytes":        float64(ps.Bytes),
		},
	}, nil
}
