package server

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/loadgen"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// durableOptions returns server options backed by dir, with background
// tickers and fsync disabled so a test can hard-stop the server (no
// Close) and recovery must work from what the engine wrote on its own.
func durableOptions(dir string) Options {
	return Options{DataDir: dir, Fsync: "never", FlushInterval: -1, Shards: 3}
}

// queryBody fetches the raw GET /query_range body of one series' exact
// read (its own names as the globs): recovery is asserted on the exact
// bytes a client would see.
func queryBody(t *testing.T, base, component, metric string) (int, string) {
	t.Helper()
	q := url.Values{}
	q.Set("component", component)
	q.Set("metric", metric)
	q.Set("from", "0")
	q.Set("to", fmt.Sprint(int64(1)<<60))
	resp, err := http.Get(base + "/query_range?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServerRecoversAfterHardStop is the end-to-end crash test: drive a
// real load session over HTTP into a durable server, kill it without any
// shutdown, boot a fresh server on the same directory, and require every
// series' /query_range response to be byte-identical to the pre-kill
// server's.
func TestServerRecoversAfterHardStop(t *testing.T) {
	dir := t.TempDir()
	_, hs1, c1 := newTestServer(t, durableOptions(dir))
	a, err := app.New(chainSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	driveOverHTTP(t, a, loadgen.Constant(400, 96), c1)

	st1, err := c1.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st1.Durable || st1.DataDir != dir {
		t.Fatalf("stats should report durability: %+v", st1)
	}
	if st1.Points == 0 {
		t.Fatal("no points ingested")
	}
	all, err := c1.QueryRange(tsdb.RangeQuery{Component: "*", Metric: "*", From: 0, To: 1 << 60})
	if err != nil || len(all) == 0 {
		t.Fatalf("no series ingested: %v", err)
	}
	want := make(map[string]string, len(all))
	for _, r := range all {
		key := r.Component + "/" + r.Metric
		code, body := queryBody(t, hs1.URL, r.Component, r.Metric)
		if code != http.StatusOK {
			t.Fatalf("pre-kill query %s: status %d", key, code)
		}
		want[key] = body
	}
	// Hard stop: close only the HTTP listener; the store is abandoned
	// mid-air with live WAL segments and no checkpoint.
	hs1.Close()

	s2, hs2, c2 := newTestServer(t, durableOptions(dir))
	defer s2.Close()
	st2, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Points != st1.Points || st2.Series != st1.Series {
		t.Fatalf("recovered %d points / %d series, want %d / %d",
			st2.Points, st2.Series, st1.Points, st1.Series)
	}
	if st2.MaxTimeMS != st1.MaxTimeMS {
		t.Fatalf("recovered MaxTime %d, want %d (window anchor must survive)", st2.MaxTimeMS, st1.MaxTimeMS)
	}
	for key, wantBody := range want {
		comp, metric, _ := strings.Cut(key, "/")
		code, body := queryBody(t, hs2.URL, comp, metric)
		if code != http.StatusOK {
			t.Fatalf("post-restart query %s: status %d", key, code)
		}
		if body != wantBody {
			t.Fatalf("post-restart /query_range for %s is not byte-identical", key)
		}
	}
}

// TestServerRecoveryAfterCheckpointAndGracefulClose covers the other two
// shutdown paths: data split across a sealed block and the WAL, and a
// graceful Close that checkpoints everything.
func TestServerRecoveryAfterCheckpointAndGracefulClose(t *testing.T) {
	dir := t.TempDir()
	s1, hs1, c1 := newTestServer(t, durableOptions(dir))
	write := func(c *Client, batch int) {
		t.Helper()
		var samples []tsdb.Sample
		for m := 0; m < 6; m++ {
			samples = append(samples, tsdb.Sample{
				Component: "comp", Metric: fmt.Sprintf("m%d", m),
				T: int64(batch) * 500, V: float64(batch * m),
			})
		}
		if _, err := c.Write(tsdb.EncodeLineProtocol(samples)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		write(c1, i)
	}
	if err := s1.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 70; i++ {
		write(c1, i)
	}
	_, wantBody := queryBody(t, hs1.URL, "comp", "m3")
	hs1.Close() // hard stop: block + WAL on disk

	s2, hs2, _ := newTestServer(t, durableOptions(dir))
	_, gotBody := queryBody(t, hs2.URL, "comp", "m3")
	if gotBody != wantBody {
		t.Fatal("block+WAL recovery: /query_range not byte-identical")
	}
	if err := s2.Close(); err != nil { // graceful: final checkpoint
		t.Fatal(err)
	}
	hs2.Close()

	s3, hs3, _ := newTestServer(t, durableOptions(dir))
	defer s3.Close()
	_, gotBody = queryBody(t, hs3.URL, "comp", "m3")
	if gotBody != wantBody {
		t.Fatal("blocks-only recovery after graceful close: /query_range not byte-identical")
	}
}

// TestServerInMemoryUnchanged pins that an empty DataDir keeps the
// store in memory, reported as such, and that Close, which only stops
// its loops there, leaves it serving.
func TestServerInMemoryUnchanged(t *testing.T) {
	s, _, c := newTestServer(t, Options{})
	if s.store.DataDir() != "" {
		t.Fatal("store should be in-memory without DataDir")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close on an in-memory server: %v", err)
	}
	if _, err := c.Write([]byte("web,metric=cpu value=0.5 500")); err != nil {
		t.Fatalf("write after Close: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Durable || st.DataDir != "" {
		t.Fatalf("stats should report in-memory: %+v", st)
	}
}

// TestServerBadFsyncPolicy pins option validation: an unknown policy is
// refused with or without a DataDir.
func TestServerBadFsyncPolicy(t *testing.T) {
	for _, dir := range []string{t.TempDir(), ""} {
		if _, err := New(Options{DataDir: dir, Fsync: "sometimes"}); err == nil || !strings.Contains(err.Error(), "sometimes") {
			t.Errorf("DataDir %q, Fsync sometimes: err %v, want it refused by name", dir, err)
		}
	}
}

// TestServerInMemoryRetention: without a DataDir the store still seals
// its memory into blocks every FlushInterval and drops the blocks past
// Retention, so a writer feeding application time at a constant rate
// holds a constant number of points once the horizon has passed. Each
// round writes ten minutes of application time for 256 series and waits
// for the flusher to seal it and enforce retention; under a one-hour
// horizon the newest seven rounds stay. The heap after each round is
// logged beside the points.
func TestServerInMemoryRetention(t *testing.T) {
	const (
		series  = 256
		stepMS  = 10_000
		roundMS = 10 * 60_000
		rounds  = 14
		kept    = 7
	)
	s, _, _ := newTestServer(t, Options{Retention: time.Hour, FlushInterval: 5 * time.Millisecond})
	defer s.Close()
	st := s.Store()
	perRound := series * roundMS / stepMS
	batch := make([]tsdb.Sample, 0, perRound)
	written := 0
	for r := 0; r < rounds; r++ {
		batch = batch[:0]
		for ts := int64(r * roundMS); ts < int64((r+1)*roundMS); ts += stepMS {
			for i := 0; i < series; i++ {
				batch = append(batch, tsdb.Sample{Component: "web", Metric: fmt.Sprintf("m%03d", i), T: ts, V: float64(i)})
			}
		}
		if err := st.WriteSamples(batch, 0); err != nil {
			t.Fatal(err)
		}
		written += len(batch)
		// Sealed once a checkpoint has moved every written point into a
		// block; retention ran once a checkpoint finishes after that.
		deadline := time.Now().Add(10 * time.Second)
		for st.Telemetry().CheckpointPoints.Value() < uint64(written) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: no checkpoint sealed it within 10s", r)
			}
			time.Sleep(time.Millisecond)
		}
		sealed := time.Now()
		for !st.Checkpoints().Last.After(sealed) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: no checkpoint finished after it was sealed within 10s", r)
			}
			time.Sleep(time.Millisecond)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		stats := st.Stats()
		t.Logf("round %2d: %6d points in %2d blocks, %7d storage bytes, heap %.1f MiB", r, stats.Points, stats.Blocks, stats.StorageBytes, float64(ms.HeapAlloc)/(1<<20))
		if want := min(r+1, kept) * perRound; stats.Points != want {
			t.Fatalf("round %d: the store holds %d points, want %d (%d rounds of %d)", r, stats.Points, want, min(r+1, kept), perRound)
		}
	}
}
