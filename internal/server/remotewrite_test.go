package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/loadgen"
	"github.com/sieve-microservices/sieve/internal/metrics"
	"github.com/sieve-microservices/sieve/internal/promremote"
	"github.com/sieve-microservices/sieve/internal/snappy"
	"github.com/sieve-microservices/sieve/internal/trace"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// postRemote posts raw bytes to /api/v1/write with the remote-write
// headers and returns status, response headers, and body.
func postRemote(t *testing.T, base string, body []byte) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/api/v1/write", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-protobuf")
	req.Header.Set("Content-Encoding", "snappy")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// encodeRemote renders a WriteRequest exactly as a remote-write sender
// would put it on the wire.
func encodeRemote(req *promremote.WriteRequest) []byte {
	return snappy.Encode(promremote.Marshal(req))
}

func TestRemoteWriteStoresSamples(t *testing.T) {
	s, hs, c := newTestServer(t, Options{})
	samples := []tsdb.Sample{
		{Component: "web", Metric: "cpu", T: 500, V: 0.25},
		{Component: "web", Metric: "cpu", T: 1000, V: 0.5},
		{Component: "db", Metric: "qps", T: 500, V: 120},
	}
	n, err := c.WriteRemote(samples)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(samples) {
		t.Fatalf("acked %d samples, want %d", n, len(samples))
	}
	pts, err := readSeries(s, "web", "cpu")
	if err != nil || len(pts) != 2 {
		t.Fatalf("web/cpu: %d points, err %v; want 2", len(pts), err)
	}
	if pts[0].V != 0.25 || pts[1].V != 0.5 || pts[0].T != 500 || pts[1].T != 1000 {
		t.Fatalf("web/cpu points = %+v", pts)
	}
	// Extra labels fold into the metric name as a sorted {k=v,...}
	// suffix — the documented mapping for real Prometheus senders whose
	// series carry more than __name__ and job.
	req := &promremote.WriteRequest{TimeSeries: []promremote.TimeSeries{{
		Labels: []promremote.Label{
			{Name: "instance", Value: "host-1:9100"},
			{Name: promremote.MetricNameLabel, Value: "cpu"},
			{Name: "job", Value: "web"},
		},
		Samples: []promremote.Sample{{Value: 1.5, TimestampMS: 1500}},
	}}}
	code, _, body := postRemote(t, hs.URL, encodeRemote(req))
	if code != http.StatusNoContent {
		t.Fatalf("folded-label write: status %d, body %s", code, body)
	}
	pts, err = readSeries(s, "web", "cpu{instance=host-1:9100}")
	if err != nil || len(pts) != 1 {
		t.Fatalf("folded metric: %d points, err %v; want 1", len(pts), err)
	}
}

func TestRemoteWriteComponentLabelOption(t *testing.T) {
	s, hs, _ := newTestServer(t, Options{RemoteWriteComponentLabel: "instance"})
	req := &promremote.WriteRequest{TimeSeries: []promremote.TimeSeries{{
		Labels: []promremote.Label{
			{Name: promremote.MetricNameLabel, Value: "cpu"},
			{Name: "instance", Value: "edge-7"},
		},
		Samples: []promremote.Sample{{Value: 2, TimestampMS: 500}},
	}}}
	code, _, body := postRemote(t, hs.URL, encodeRemote(req))
	if code != http.StatusNoContent {
		t.Fatalf("status %d, body %s", code, body)
	}
	if pts, err := readSeries(s, "edge-7", "cpu"); err != nil || len(pts) != 1 {
		t.Fatalf("edge-7/cpu: %d points, err %v; want 1", len(pts), err)
	}
	// Claiming __name__ as the component label cannot mean anything.
	if _, err := New(Options{RemoteWriteComponentLabel: promremote.MetricNameLabel}); err == nil {
		t.Fatal("New accepted __name__ as the component label")
	}
}

// TestRemoteWriteRejectClasses pins every documented reject: the status
// code, the Retry-After contract, and — most importantly — that a
// rejected request stores nothing.
func TestRemoteWriteRejectClasses(t *testing.T) {
	s, hs, _ := newTestServer(t, Options{})
	// The real bounds would take a 32 MiB body, a 64 MiB payload or a
	// million samples to trip.
	s.maxBodyBytes, s.remoteWriteMaxBytes, s.remoteWriteMaxSamples = 256, 1<<10, 4
	series := func(n int, startT int64) *promremote.WriteRequest {
		req := &promremote.WriteRequest{TimeSeries: []promremote.TimeSeries{{
			Labels: []promremote.Label{
				{Name: promremote.MetricNameLabel, Value: "cpu"},
				{Name: "job", Value: "web"},
			},
		}}}
		for i := 0; i < n; i++ {
			req.TimeSeries[0].Samples = append(req.TimeSeries[0].Samples,
				promremote.Sample{Value: float64(i), TimestampMS: startT + int64(i)*500})
		}
		return req
	}
	// Incompressible payload: snappy falls back to literals, so the
	// compressed body tracks the input size and blows maxBodyBytes.
	incompressible := make([]byte, 1<<10)
	x := uint32(2463534242)
	for i := range incompressible {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		incompressible[i] = byte(x)
	}
	cases := []struct {
		name       string
		body       []byte
		wantStatus int
		wantInBody string
	}{
		{"compressed over Max body size", snappy.Encode(incompressible),
			http.StatusRequestEntityTooLarge, "compressed"},
		{"decompression bomb preamble", []byte{0x80, 0x80, 0x80, 0x80, 0x04}, // claims 1 GiB, carries nothing
			http.StatusRequestEntityTooLarge, "decompressed"},
		{"undecodable snappy preamble", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
			http.StatusBadRequest, "snappy"},
		{"corrupt snappy body", []byte{0x04, 0xf0}, // claims 4 literal bytes, truncated element
			http.StatusBadRequest, "snappy"},
		{"undecodable protobuf", snappy.Encode([]byte{0x0a}), // field 1 LEN, missing length
			http.StatusBadRequest, "protobuf"},
		{"missing metric name", encodeRemote(&promremote.WriteRequest{TimeSeries: []promremote.TimeSeries{{
			Labels:  []promremote.Label{{Name: "job", Value: "web"}},
			Samples: []promremote.Sample{{Value: 1, TimestampMS: 500}},
		}}}), http.StatusBadRequest, promremote.MetricNameLabel},
		{"missing component label", encodeRemote(&promremote.WriteRequest{TimeSeries: []promremote.TimeSeries{{
			Labels:  []promremote.Label{{Name: promremote.MetricNameLabel, Value: "cpu"}},
			Samples: []promremote.Sample{{Value: 1, TimestampMS: 500}},
		}}}), http.StatusBadRequest, "job"},
		{"sample limit", encodeRemote(series(5, 500)), http.StatusTooManyRequests, "limit"},
		{"timestamp past range", encodeRemote(&promremote.WriteRequest{TimeSeries: []promremote.TimeSeries{{
			Labels: []promremote.Label{
				{Name: promremote.MetricNameLabel, Value: "cpu"},
				{Name: "job", Value: "web"},
			},
			Samples: []promremote.Sample{{Value: 1, TimestampMS: tsdb.MaxTimestampMS + 1}},
		}}}), http.StatusBadRequest, "timestamp"},
		// Second series unmappable: the whole request must be rejected
		// before anything reaches the store — no partial garbage.
		{"atomic reject across series", encodeRemote(&promremote.WriteRequest{TimeSeries: []promremote.TimeSeries{
			{
				Labels: []promremote.Label{
					{Name: promremote.MetricNameLabel, Value: "cpu"},
					{Name: "job", Value: "web"},
				},
				Samples: []promremote.Sample{{Value: 1, TimestampMS: 500}},
			},
			{
				Labels:  []promremote.Label{{Name: "job", Value: "web"}},
				Samples: []promremote.Sample{{Value: 2, TimestampMS: 500}},
			},
		}}), http.StatusBadRequest, promremote.MetricNameLabel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, hdr, body := postRemote(t, hs.URL, tc.body)
			if code != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", code, tc.wantStatus, body)
			}
			if !strings.Contains(body, tc.wantInBody) {
				t.Fatalf("body %q does not mention %q", body, tc.wantInBody)
			}
			if code == http.StatusTooManyRequests {
				if hdr.Get("Retry-After") != "1" {
					t.Fatalf("Retry-After = %q, want %q", hdr.Get("Retry-After"), "1")
				}
			}
			if pts := s.Store().Stats().Points; pts != 0 {
				t.Fatalf("reject stored %d points", pts)
			}
		})
	}
	// An exactly-at-limit request still lands.
	code, _, body := postRemote(t, hs.URL, encodeRemote(series(4, 500)))
	if code != http.StatusNoContent {
		t.Fatalf("at-limit write: status %d, body %s", code, body)
	}
	if pts := s.Store().Stats().Points; pts != 4 {
		t.Fatalf("stored %d points, want 4", pts)
	}
}

// TestRemoteWriteDropsNonFiniteValues: Prometheus staleness markers are
// NaN samples; they must be dropped and the rest of the request stored.
func TestRemoteWriteDropsNonFiniteValues(t *testing.T) {
	s, hs, _ := newTestServer(t, Options{})
	req := &promremote.WriteRequest{TimeSeries: []promremote.TimeSeries{{
		Labels: []promremote.Label{
			{Name: promremote.MetricNameLabel, Value: "cpu"},
			{Name: "job", Value: "web"},
		},
		Samples: []promremote.Sample{
			{Value: math.NaN(), TimestampMS: 500},
			{Value: 0.75, TimestampMS: 1000},
			{Value: math.Inf(1), TimestampMS: 1500},
		},
	}}}
	code, hdr, body := postRemote(t, hs.URL, encodeRemote(req))
	if code != http.StatusNoContent {
		t.Fatalf("status %d, body %s", code, body)
	}
	if ack := hdr.Get("X-Sieve-Samples"); ack != "1" {
		t.Fatalf("acked %q samples, want 1 (non-finite dropped)", ack)
	}
	pts, err := readSeries(s, "web", "cpu")
	if err != nil || len(pts) != 1 || pts[0].V != 0.75 {
		t.Fatalf("points %+v, err %v; want the single finite sample", pts, err)
	}
}

// TestRemoteWriteReservedComponent: the reserved component is rejected
// with self-scrape off too — only sieved's own samples carry process time.
func TestRemoteWriteReservedComponent(t *testing.T) {
	s, _, c := newTestServer(t, Options{})
	_, err := c.WriteRemote([]tsdb.Sample{{Component: tsdb.ReservedComponent, Metric: "cpu", T: 500, V: 1}})
	if err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("want reserved-component reject, got %v", err)
	}
	if got := s.tel.reservedRejects.Value(); got != 1 {
		t.Fatalf("reserved rejects = %d, want 1", got)
	}
	if pts := s.Store().Stats().Points; pts != 0 {
		t.Fatalf("reserved remote write stored %d points", pts)
	}
}

// teeWriter forwards line-protocol payloads to a client while keeping a
// copy, so the identical samples can be replayed through the
// remote-write on-ramp.
type teeWriter struct {
	inner    *Client
	payloads [][]byte
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.payloads = append(w.payloads, bytes.Clone(p))
	return w.inner.Write(p)
}

// rangeBody fetches a raw GET /query_range body: equivalence is pinned
// on the exact bytes a client sees.
func rangeBody(t *testing.T, base, query string) string {
	t.Helper()
	resp, err := http.Get(base + "/query_range?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query_range %s: status %d, body %s", query, resp.StatusCode, b)
	}
	return string(b)
}

// artifactSansElapsed fetches /artifact with the one nondeterministic
// field (elapsed_ms, wall-clock) removed, re-marshaled with sorted keys.
func artifactSansElapsed(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/artifact: status %d", resp.StatusCode)
	}
	delete(env, "elapsed_ms")
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRemoteWriteEquivalence is the acceptance pin for the new on-ramp:
// a realistic load session ingested once through line-protocol /write
// and once through /api/v1/write must be indistinguishable downstream —
// byte-identical /query_range responses and an identical analysis
// artifact — at 1 and 4 shards.
func TestRemoteWriteEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		opts := Options{AppName: "chain", Shards: shards}
		_, hsLine, cLine := newTestServer(t, opts)
		_, hsRemote, cRemote := newTestServer(t, opts)

		a, err := app.New(chainSpec(), 1)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.NewTracer(1<<18, nil)
		a.AttachTracer(tr)
		tee := &teeWriter{inner: cLine}
		coll, err := metrics.NewCollector(tee, a.Registries()...)
		if err != nil {
			t.Fatal(err)
		}
		if err := loadgen.DriveCollector(context.Background(), a, loadgen.Constant(400, 96), coll); err != nil {
			t.Fatal(err)
		}
		g := callgraph.FromSyscallEvents(tr.Events())
		if err := cLine.PostCallGraph(g); err != nil {
			t.Fatal(err)
		}
		if err := cRemote.PostCallGraph(g); err != nil {
			t.Fatal(err)
		}

		// Replay the exact captured scrapes through remote write.
		var lineTotal, remoteTotal int
		for _, p := range tee.payloads {
			samples, err := tsdb.ParseLineProtocol(p)
			if err != nil {
				t.Fatal(err)
			}
			lineTotal += len(samples)
			n, err := cRemote.WriteRemote(samples)
			if err != nil {
				t.Fatal(err)
			}
			remoteTotal += n
		}
		if lineTotal == 0 || remoteTotal != lineTotal {
			t.Fatalf("shards=%d: remote acked %d samples, line path carried %d", shards, remoteTotal, lineTotal)
		}

		for _, q := range []string{
			"from=0&to=" + to62(),
			"component=*&metric=*rate*&from=0&to=" + to62(),
			"agg=max&step=60000&from=0&to=" + to62(),
		} {
			if lb, rb := rangeBody(t, hsLine.URL, q), rangeBody(t, hsRemote.URL, q); lb != rb {
				t.Fatalf("shards=%d: /query_range?%s differs between ingest paths", shards, q)
			}
		}

		infoL, err := cLine.RunPipeline()
		if err != nil {
			t.Fatal(err)
		}
		infoR, err := cRemote.RunPipeline()
		if err != nil {
			t.Fatal(err)
		}
		if infoL.Series == 0 || infoL.Clusters == 0 {
			t.Fatalf("shards=%d: pipeline analyzed nothing: %+v", shards, infoL)
		}
		if infoL.Series != infoR.Series || infoL.Clusters != infoR.Clusters {
			t.Fatalf("shards=%d: pipeline runs diverge: line %+v remote %+v", shards, infoL, infoR)
		}
		if la, ra := artifactSansElapsed(t, hsLine.URL), artifactSansElapsed(t, hsRemote.URL); la != ra {
			t.Fatalf("shards=%d: artifacts differ between ingest paths", shards)
		}
	}
}

func to62() string { return "4611686018427387904" } // 1<<62, beyond any test timestamp

// TestRemoteWriteEquivalenceSurvivesHardStop extends the pin across a
// crash: remote-written data goes through the same WAL as /write data,
// so after a kill (no shutdown, no checkpoint) both recover to
// byte-identical /query_range responses.
func TestRemoteWriteEquivalenceSurvivesHardStop(t *testing.T) {
	for _, shards := range []int{1, 4} {
		var samples []tsdb.Sample
		for step := int64(1); step <= 200; step++ {
			for _, comp := range []string{"web", "api", "db"} {
				for m := 0; m < 3; m++ {
					samples = append(samples, tsdb.Sample{
						Component: comp, Metric: "m" + strings.Repeat("x", m),
						T: step * 500, V: float64(m) + math.Sin(float64(step)/7),
					})
				}
			}
		}
		dirLine, dirRemote := t.TempDir(), t.TempDir()
		opts := func(dir string) Options {
			return Options{DataDir: dir, Fsync: "never", FlushInterval: -1, Shards: shards}
		}
		_, hsLine, cLine := newTestServer(t, opts(dirLine))
		_, hsRemote, cRemote := newTestServer(t, opts(dirRemote))
		if _, err := cLine.Write(tsdb.EncodeLineProtocol(samples)); err != nil {
			t.Fatal(err)
		}
		if n, err := cRemote.WriteRemote(samples); err != nil || n != len(samples) {
			t.Fatalf("remote write: %d acked, err %v", n, err)
		}
		q := "from=0&to=" + to62()
		want := rangeBody(t, hsLine.URL, q)
		if got := rangeBody(t, hsRemote.URL, q); got != want {
			t.Fatalf("shards=%d: pre-kill /query_range differs between ingest paths", shards)
		}
		// Hard stop both: listener gone, stores abandoned with live WALs.
		hsLine.Close()
		hsRemote.Close()
		s2Line, hs2Line, _ := newTestServer(t, opts(dirLine))
		s2Remote, hs2Remote, _ := newTestServer(t, opts(dirRemote))
		defer s2Line.Close()
		defer s2Remote.Close()
		if got := rangeBody(t, hs2Line.URL, q); got != want {
			t.Fatalf("shards=%d: line path not byte-identical after recovery", shards)
		}
		if got := rangeBody(t, hs2Remote.URL, q); got != want {
			t.Fatalf("shards=%d: remote path not byte-identical after recovery", shards)
		}
	}
}
