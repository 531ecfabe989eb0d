package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/app/sharelatex"
	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/loadgen"
	"github.com/sieve-microservices/sieve/internal/metrics"
	"github.com/sieve-microservices/sieve/internal/trace"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server, *Client) {
	t.Helper()
	return newTracingTestServer(t, opts, slowOpThreshold)
}

// newTracingTestServer is newTestServer with the trace ring's slow-op
// threshold.
func newTracingTestServer(t *testing.T, opts Options, slowOp time.Duration) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s, err := newServer(opts, slowOp)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs, NewClient(hs.URL)
}

// readSeries is an exact read of one series from the server's store: a
// raw QueryRange whose globs are the series' own names, keeping only the
// result with exactly that key (a name holding '*' or '?' can only widen
// the match). A series nobody wrote reads as no points.
func readSeries(s *Server, component, metric string) ([]tsdb.Point, error) {
	res, err := s.Store().QueryRange(context.Background(), tsdb.RangeQuery{
		Component: component, Metric: metric, From: 0, To: 1 << 40,
	})
	for _, r := range res {
		if r.Component == component && r.Metric == metric {
			return r.Points, err
		}
	}
	return nil, err
}

// chainSpec is a small three-component topology for fast server tests.
func chainSpec() app.Spec {
	return app.Spec{
		Name:   "chain",
		TickMS: 500,
		Components: []app.ComponentSpec{
			{
				Name: "lb", Addr: "10.9.0.1:80", ServiceMS: 2, CapacityPerInstance: 4000,
				Entry: true, Calls: []app.Call{{Target: "api", Prob: 1}},
				Families: []app.Family{
					{Base: "lb_rate", Driver: app.DriverRate, Noise: 0.02, Variants: []string{"mean", "p95"}},
					{Base: "lb_latency_ms", Driver: app.DriverLatency, Noise: 0.02},
				},
			},
			{
				Name: "api", Addr: "10.9.0.2:8080", ServiceMS: 8, CapacityPerInstance: 2000,
				Calls: []app.Call{{Target: "db", Prob: 0.9}},
				Families: []app.Family{
					{Base: "api_rate", Driver: app.DriverRate, Noise: 0.02},
					{Base: "api_util", Driver: app.DriverUtil, Noise: 0.02},
				},
			},
			{
				Name: "db", Addr: "10.9.0.3:5432", ServiceMS: 5, CapacityPerInstance: 1500,
				Families: []app.Family{
					{Base: "db_rate", Driver: app.DriverRate, Noise: 0.03},
					{Base: "db_latency_ms", Driver: app.DriverOwnLatency, Noise: 0.03},
				},
			},
		},
	}
}

// driveOverHTTP runs a load session against the app, shipping every
// scrape through the client's /write and uploading the traced call
// graph, exactly as an external deployment would.
func driveOverHTTP(t *testing.T, a *app.App, pattern loadgen.Pattern, c *Client) {
	t.Helper()
	tr := trace.NewTracer(1<<18, nil)
	a.AttachTracer(tr)
	coll, err := metrics.NewCollector(c, a.Registries()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadgen.DriveCollector(context.Background(), a, pattern, coll); err != nil {
		t.Fatal(err)
	}
	if err := c.PostCallGraph(callgraph.FromSyscallEvents(tr.Events())); err != nil {
		t.Fatal(err)
	}
}

// TestServerEndToEndShareLatex is the acceptance path: boot sieved on a
// loopback listener, drive a ShareLatex load session through HTTP
// /write, and assert /artifact returns a non-empty reduction and
// dependency graph with a live autoscaling signal.
func TestServerEndToEndShareLatex(t *testing.T) {
	_, _, c := newTestServer(t, Options{AppName: "sharelatex"})

	if _, err := c.Artifact(); !errors.Is(err, ErrNoArtifact) {
		t.Fatalf("artifact before any run: err = %v, want ErrNoArtifact", err)
	}

	a, err := sharelatex.New(42)
	if err != nil {
		t.Fatal(err)
	}
	driveOverHTTP(t, a, loadgen.Random(7, 150, 200, 2500), c)

	info, err := c.RunPipeline()
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 || info.Series == 0 || info.Clusters == 0 {
		t.Fatalf("run info = %+v", info)
	}

	res, err := c.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	art := res.Artifact
	if art.Reduction.TotalBefore() == 0 || art.Reduction.TotalAfter() == 0 {
		t.Fatalf("empty reduction: %d -> %d", art.Reduction.TotalBefore(), art.Reduction.TotalAfter())
	}
	if art.Reduction.TotalAfter() >= art.Reduction.TotalBefore() {
		t.Fatalf("reduction did not reduce: %d -> %d",
			art.Reduction.TotalBefore(), art.Reduction.TotalAfter())
	}
	if len(art.Graph.Edges) == 0 {
		t.Fatal("dependency graph is empty")
	}
	if res.Signal.Metric == "" || res.Signal.Relations == 0 {
		t.Fatalf("no autoscaling signal: %+v", res.Signal)
	}
	if !strings.Contains(res.Signal.Metric, "/") {
		t.Fatalf("signal %q is not a component/metric key", res.Signal.Metric)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Points == 0 || st.Series == 0 || st.Writes < 150 || st.Generation != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// The ingested series are queryable back out over HTTP.
	e := art.Graph.Edges[0]
	got, err := c.QueryRange(tsdb.RangeQuery{Component: e.From, Metric: e.FromMetric, From: 0, To: st.MaxTimeMS + 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Component != e.From || got[0].Metric != e.FromMetric || len(got[0].Points) == 0 {
		t.Fatalf("query %s/%s returned %+v, want its points", e.From, e.FromMetric, got)
	}
}

// TestServerWindowSlides verifies the online driver's sliding window:
// more ingest + another run advances the generation and the window end.
func TestServerWindowSlides(t *testing.T) {
	_, _, c := newTestServer(t, Options{
		AppName:  "chain",
		WindowMS: 64 * 500, // keep the window shorter than the session
	})
	a, err := app.New(chainSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	driveOverHTTP(t, a, loadgen.Random(5, 100, 100, 1500), c)
	first, err := c.RunPipeline()
	if err != nil {
		t.Fatal(err)
	}
	if got := first.End - first.Start; got > 64*500+1 {
		t.Fatalf("window spans %dms, want <= %d", got, 64*500+1)
	}

	coll, err := metrics.NewCollector(c, a.Registries()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadgen.DriveCollector(context.Background(), a, loadgen.Random(6, 60, 100, 1500), coll); err != nil {
		t.Fatal(err)
	}
	second, err := c.RunPipeline()
	if err != nil {
		t.Fatal(err)
	}
	if second.Generation != first.Generation+1 {
		t.Fatalf("generation = %d, want %d", second.Generation, first.Generation+1)
	}
	if second.End <= first.End || second.Start <= first.Start {
		t.Fatalf("window did not slide: [%d,%d) then [%d,%d)",
			first.Start, first.End, second.Start, second.End)
	}

	res, err := c.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != second.Generation {
		t.Fatalf("artifact generation = %d, want %d", res.Generation, second.Generation)
	}
}

// TestServerWaitsForMinWindow pins the pipeline's data floor at its real
// value: 63 grid steps of data is "waiting" (ErrNoData, 409 on POST
// /run), the 64th lets the cycle run.
func TestServerWaitsForMinWindow(t *testing.T) {
	s, _, c := newTestServer(t, Options{AppName: "chain"})
	a, err := app.New(chainSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	pattern := loadgen.Random(5, MinWindowSamples, 100, 1500)
	driveChunk(t, a, c, pattern[:MinWindowSamples-1])
	if _, err := s.RunPipelineOnce(context.Background()); !errors.Is(err, ErrNoData) {
		t.Fatalf("cycle over %d grid steps: err = %v, want ErrNoData", MinWindowSamples-1, err)
	}
	driveChunk(t, a, c, pattern[MinWindowSamples-1:])
	if _, err := s.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("cycle over %d grid steps: %v", MinWindowSamples, err)
	}
}

// TestServerWithoutCallGraph: with no topology the pipeline still runs,
// publishing a reduction with an empty dependency graph.
func TestServerWithoutCallGraph(t *testing.T) {
	_, _, c := newTestServer(t, Options{AppName: "chain"})
	a, err := app.New(chainSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := metrics.NewCollector(c, a.Registries()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadgen.DriveCollector(context.Background(), a, loadgen.Random(5, 80, 100, 1500), coll); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunPipeline(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	if res.Artifact.Reduction.TotalAfter() == 0 {
		t.Fatal("no reduction without a call graph")
	}
	if len(res.Artifact.Graph.Edges) != 0 {
		t.Fatal("dependency edges without any call graph")
	}
}

// TestServerMalformedRequests drives every malformed-input class at the
// HTTP surface: the server must answer with a 4xx and keep serving,
// never panic and never store partial garbage.
func TestServerMalformedRequests(t *testing.T) {
	s, hs, c := newTestServer(t, Options{})
	s.maxBodyBytes = 1 << 10 // the real bound would take a 32 MiB body to trip
	const oneEdge = `[{"caller":"a","callee":"b"}]`
	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"write empty body", "POST", "/write", "", http.StatusBadRequest},
		{"write garbage", "POST", "/write", "complete garbage", http.StatusBadRequest},
		{"write missing timestamp", "POST", "/write", "web,metric=cpu value=1", http.StatusBadRequest},
		{"write bad timestamp", "POST", "/write", "web,metric=cpu value=1 12h", http.StatusBadRequest},
		{"write NaN value", "POST", "/write", "web,metric=cpu value=NaN 500", http.StatusBadRequest},
		{"write infinite value", "POST", "/write", "web,metric=cpu value=+Inf 500", http.StatusBadRequest},
		{"write empty component", "POST", "/write", ",metric=cpu value=1 500", http.StatusBadRequest},
		{"write bad line in batch", "POST", "/write", "web,metric=cpu value=1 500\ngarbage", http.StatusBadRequest},
		{"write reserved component", "POST", "/write", "web,metric=cpu value=1 500\nsieve,metric=cpu value=1 500", http.StatusBadRequest},
		{"write oversized body", "POST", "/write", strings.Repeat("x", 2<<10), http.StatusRequestEntityTooLarge},
		{"write wrong method", "GET", "/write", "", http.StatusMethodNotAllowed},
		{"query missing params", "GET", "/query_range?agg=max", "", http.StatusBadRequest},
		{"query unknown series", "GET", "/query_range?component=no&metric=pe", "", http.StatusOK},
		{"query bad from", "GET", "/query_range?component=a&metric=b&from=xyz", "", http.StatusBadRequest},
		{"query bad to", "GET", "/query_range?component=a&metric=b&to=1.5", "", http.StatusBadRequest},
		{"query from past the default to", "GET", "/query_range?from=1000", "", http.StatusOK},
		{"query explicit inverted range", "GET", "/query_range?from=1000&to=999", "", http.StatusBadRequest},
		{"query removed /query route", "GET", "/query?component=web&metric=cpu", "", http.StatusNotFound},
		{"artifact before first run", "GET", "/artifact", "", http.StatusNotFound},
		{"run with empty store", "POST", "/run", "", http.StatusConflict},
		{"callgraph invalid json", "POST", "/callgraph", "{not json", http.StatusBadRequest},
		{"callgraph wrong shape", "POST", "/callgraph", `{"caller":"a"}`, http.StatusBadRequest},
		{"callgraph oversized body", "POST", "/callgraph", "[" + strings.Repeat(`{"caller":"x","callee":"y"},`, 64) + `{"caller":"x","callee":"y"}]`, http.StatusRequestEntityTooLarge},
		{"callgraph trailing garbage", "POST", "/callgraph", `[{"caller":"x","callee":"y"}] garbage`, http.StatusBadRequest},
		{"callgraph second value", "POST", "/callgraph", `[{"caller":"x","callee":"y"}],{"caller":"y","callee":"z"}`, http.StatusBadRequest},
		{"callgraph at the limit", "POST", "/callgraph", oneEdge + strings.Repeat(" ", 1<<10-len(oneEdge)), http.StatusNoContent},
		{"unknown path", "GET", "/nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, hs.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("%s %s -> %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
			}
		})
	}
	if got := s.Store().Stats().Points; got != 0 {
		t.Fatalf("malformed traffic stored %d points", got)
	}
	// Self-scrape is off, and the reserved component is still refused.
	if got := s.tel.reservedRejects.Value(); got != 1 {
		t.Fatalf("reserved rejects = %d, want 1", got)
	}
	// Only the accepted call graph was installed: a rejected body must
	// not leave a truncated topology behind to restrict Granger tests.
	if edges := s.graph.Edges(); len(edges) != 1 || edges[0].Caller != "a" || edges[0].Callee != "b" {
		t.Fatalf("installed call graph = %v, want only a->b", edges)
	}
	// The server survived all of it and still ingests good data.
	if n, err := c.Write([]byte("web,metric=cpu value=0.5 500\n")); err != nil || n != 1 {
		t.Fatalf("healthy write after abuse: n=%d err=%v", n, err)
	}
}

// TestWriteRejectsSlashInComponent pins the line-protocol reject of a
// component holding '/': such a line would be stored under a key that
// reads back as another series ("a/b" + "c" as "a" + "b/c"), and "sieve/x"
// would land inside the reserved self-telemetry component.
func TestWriteRejectsSlashInComponent(t *testing.T) {
	s, hs, _ := newTestServer(t, Options{})
	for _, line := range []string{"a/b,metric=c value=1 1", "sieve/x,metric=y value=1 1"} {
		resp, err := http.Post(hs.URL+"/write", "text/plain", strings.NewReader(line))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /write %q -> %d, want 400", line, resp.StatusCode)
		}
	}
	if st := s.Store().Stats(); st.Points != 0 || st.Series != 0 {
		t.Fatalf("rejected lines stored %d points in %d series", st.Points, st.Series)
	}
}

// TestServerOptionValidation pins New's rejection of nonsense windows.
func TestServerOptionValidation(t *testing.T) {
	if _, err := New(Options{StepMS: 1000, WindowMS: 500}); err == nil {
		t.Fatal("step > window must be rejected")
	}
	// 40 grid steps: every cycle would answer "window spans 40 of 64
	// required grid steps" forever while /readyz stayed ok.
	_, err := New(Options{StepMS: 500, WindowMS: 20_000})
	if err == nil {
		t.Fatal("a window of fewer than 64 grid steps must be rejected")
	}
	for _, want := range []string{"20000ms", "500ms", "40", "64"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	s, err := New(Options{StepMS: 500, WindowMS: 64 * 500})
	if err != nil {
		t.Fatalf("a 64-step window must be accepted: %v", err)
	}
	s.Close()
}

// TestServerRejectsRetentionShorterThanWindow: retention would drop the
// blocks holding the window's head while the pipeline still reads it,
// and resampling would make the missing head up from the first surviving
// point. 0 keeps forever; a retention of exactly the window is fine.
func TestServerRejectsRetentionShorterThanWindow(t *testing.T) {
	opts := Options{StepMS: 500, WindowMS: 240_000, DataDir: t.TempDir()}
	opts.Retention = time.Minute
	_, err := New(opts)
	if err == nil || !strings.Contains(err.Error(), "retention 1m0s") || !strings.Contains(err.Error(), "4m0s window") {
		t.Fatalf("retention 1m under a 4m window: err %v, want it refused naming both", err)
	}
	for _, keep := range []time.Duration{0, 4 * time.Minute} {
		opts.Retention = keep
		s, err := New(opts)
		if err != nil {
			t.Fatalf("retention %s: %v", keep, err)
		}
		s.Close()
	}
}

// TestRouteSurface pins sieved's HTTP surface to testdata/routes.txt, one
// "METHOD /path" per line, sorted: the route table New registers is the
// fixture, and the live mux resolves a request for each line to exactly
// that pattern.
func TestRouteSurface(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var patterns []string
	for pattern := range s.routes() {
		patterns = append(patterns, pattern)
	}
	sort.Strings(patterns)
	fixture, err := os.ReadFile("testdata/routes.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(patterns, "\n") + "\n"; got != string(fixture) {
		t.Fatalf("route table differs from testdata/routes.txt:\ngot:\n%swant:\n%s", got, fixture)
	}
	for _, pattern := range patterns {
		method, path, _ := strings.Cut(pattern, " ")
		if _, served := s.mux.Handler(httptest.NewRequest(method, path, nil)); served != pattern {
			t.Errorf("%s is served by pattern %q", pattern, served)
		}
	}
}
