package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/loadgen"
	"github.com/sieve-microservices/sieve/internal/telemetry"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// obsOptions is the observability-suite server baseline: batch pipeline
// over the chain topology with self-scrape enabled under an injected
// deterministic clock (wall-clock skew is exercised separately by
// TestSelfScrapeWallClockSkew).
func obsOptions(clock func() int64) Options {
	return Options{
		AppName:            "chain",
		WindowMS:           64 * 500,
		CallGraph:          chainGraph(),
		SelfScrapeInterval: time.Hour, // enables the contract; no loop without Start
		SelfScrapeClock:    clock,
	}
}

func getBody(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestMetricsExpositionLints pins the /metrics contract: the body
// parses as valid Prometheus 0.0.4 text exposition (the same validator
// CI's exposition-format gate uses), carries the versioned content
// type, and includes instruments from every layer.
func TestMetricsExpositionLints(t *testing.T) {
	var ts atomic.Int64
	s, hs, c := newTestServer(t, obsOptions(func() int64 { return ts.Add(1) }))
	a, err := app.New(chainSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	driveChunk(t, a, c, loadgen.Random(5, 80, 100, 1500))
	if _, err := s.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if _, err := s.SelfScrapeOnce(); err != nil {
		t.Fatalf("self-scrape: %v", err)
	}

	status, hdr, body := getBody(t, hs.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if err := telemetry.Lint(body); err != nil {
		t.Fatalf("exposition failed lint: %v\n%s", err, body)
	}
	// No series lost, renamed or retyped: the sorted "name kind" set is
	// the committed one.
	var names []string
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			names = append(names, f[2]+" "+f[3])
		}
	}
	sort.Strings(names)
	fixture, err := os.ReadFile("testdata/metrics_names.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names, "\n") + "\n"; got != string(fixture) {
		t.Fatalf("/metrics name set differs from testdata/metrics_names.txt:\ngot:\n%swant:\n%s", got, fixture)
	}
	for _, want := range []string{
		"sieve_http_write_seconds_bucket",
		"sieve_ingest_samples_total",
		"sieve_query_range_raw_seconds",
		"sieve_pipeline_cycle_seconds_count",
		"sieve_store_points",
		"sieve_selfscrape_samples_total",
		"sieve_query_chunks_decoded_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
}

// TestSelfScrapeEquivalence is the dogfooding pin: with the scrape
// clock held below the application data's high-water mark, enabling
// telemetry + self-scrape changes neither the published artifact bytes
// nor the /query_range response bytes of any non-sieve series, while
// sieved's own series become queryable under the reserved component.
func TestSelfScrapeEquivalence(t *testing.T) {
	const seed = 7
	pattern := loadgen.Random(seed, 90, 100, 1500)
	base := Options{AppName: "chain", WindowMS: 64 * 500, CallGraph: chainGraph()}

	plain, plainHTTP, cPlain := newTestServer(t, base)
	var ts atomic.Int64
	obs, obsHTTP, cObs := newTestServer(t, obsOptions(func() int64 { return ts.Add(1) }))

	// Identical byte streams: the app simulator is deterministic by seed.
	for _, d := range []struct {
		c *Client
	}{{cPlain}, {cObs}} {
		a, err := app.New(chainSpec(), seed)
		if err != nil {
			t.Fatal(err)
		}
		driveChunk(t, a, d.c, pattern)
	}

	// Scrapes land before and after the cycle; all at tiny timestamps.
	for i := 0; i < 2; i++ {
		if _, err := obs.SelfScrapeOnce(); err != nil {
			t.Fatalf("self-scrape %d: %v", i, err)
		}
	}
	if _, err := plain.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("plain pipeline: %v", err)
	}
	if _, err := obs.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("observed pipeline: %v", err)
	}
	if _, err := obs.SelfScrapeOnce(); err != nil {
		t.Fatalf("post-run self-scrape: %v", err)
	}

	if got, want := marshaledArtifact(t, obs), marshaledArtifact(t, plain); !bytes.Equal(got, want) {
		t.Fatalf("self-scrape changed the artifact (%d vs %d bytes)", len(got), len(want))
	}
	for _, q := range []string{
		"/query_range?component=lb*",
		"/query_range?component=api*&metric=api_rate*",
		"/query_range?component=db*&agg=max&step=5000",
		"/query_range?component=lb*&agg=avg&step=2500",
	} {
		_, _, a := getBody(t, plainHTTP.URL+q)
		_, _, b := getBody(t, obsHTTP.URL+q)
		if !bytes.Equal(a, b) {
			t.Fatalf("self-scrape changed %s bytes:\nplain: %s\nobs:   %s", q, a, b)
		}
	}

	// The dogfooded series exist under the reserved component...
	results, err := cObs.QueryRange(tsdb.RangeQuery{Component: "sieve", Metric: "*", From: 0, To: 1 << 40})
	if err != nil {
		t.Fatalf("querying sieve component: %v", err)
	}
	found := map[string]bool{}
	for _, r := range results {
		found[r.Metric] = true
	}
	for _, want := range []string{"http_write_seconds_count", "ingest_samples_total", "store_points"} {
		if !found[want] {
			t.Fatalf("self-scrape wrote no sieve/%s series (got %d series)", want, len(results))
		}
	}

	// ...and /write rejects the reserved component, with self-scrape on
	// or off.
	payload := tsdb.EncodeLineProtocol([]tsdb.Sample{{Component: "sieve", Metric: "x", T: 100, V: 1}})
	for _, url := range []string{obsHTTP.URL, plainHTTP.URL} {
		resp, err := http.Post(url+"/write", "text/plain", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("reserved write: status = %d, want 400", resp.StatusCode)
		}
	}

	// Under -incremental a self-scrape leaves the artifact alone, stamped
	// ahead of application time or behind the previous window's end: no
	// cycle reads the reserved component.
	for name, clockStart := range map[string]int64{"clock ahead": 1_700_000_000_000, "clock behind": 0} {
		t.Run("incremental/"+name, func(t *testing.T) {
			var ts atomic.Int64
			ts.Store(clockStart)
			obsOpts := obsOptions(func() int64 { return ts.Add(1) })
			obsOpts.Incremental = true
			plainOpts := base
			plainOpts.Incremental = true
			obs, _, cObs := newTestServer(t, obsOpts)
			plain, _, cPlain := newTestServer(t, plainOpts)
			aObs, err := app.New(chainSpec(), seed)
			if err != nil {
				t.Fatal(err)
			}
			aPlain, err := app.New(chainSpec(), seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []loadgen.Pattern{pattern[:70], pattern[70:]} {
				driveChunk(t, aObs, cObs, chunk)
				driveChunk(t, aPlain, cPlain, chunk)
				if _, err := plain.RunPipelineOnce(context.Background()); err != nil {
					t.Fatalf("plain pipeline: %v", err)
				}
				if _, err := obs.RunPipelineOnce(context.Background()); err != nil {
					t.Fatalf("observed pipeline: %v", err)
				}
				if _, err := obs.SelfScrapeOnce(); err != nil {
					t.Fatalf("self-scrape: %v", err)
				}
			}
			if got, want := marshaledArtifact(t, obs), marshaledArtifact(t, plain); !bytes.Equal(got, want) {
				t.Fatalf("self-scrape changed the incremental artifact (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestSelfScrapeWallClockSkew pins the window anchor under realistic
// skew: self-scrape stamps samples with the wall clock, which runs far
// ahead of application data ingested at historical timestamps (replays,
// backfills, simulator feeds). The pipeline window must stay anchored
// to /write-ingested data — artifact bytes identical to a server
// without self-scrape, in the first life and after a restart — and a
// store holding nothing but recovered self-telemetry must read as
// ErrNoData ("waiting"), not a failing pipeline.
func TestSelfScrapeWallClockSkew(t *testing.T) {
	const seed = 11
	pattern := loadgen.Random(seed, 90, 100, 1500)
	base := Options{AppName: "chain", WindowMS: 64 * 500, CallGraph: chainGraph()}
	plain, _, cPlain := newTestServer(t, base)
	var ts atomic.Int64
	ts.Store(1_700_000_000_000) // wall-clock ms, ~7 orders above app data
	obs, _, cObs := newTestServer(t, obsOptions(func() int64 { return ts.Add(1) }))

	for _, c := range []*Client{cPlain, cObs} {
		a, err := app.New(chainSpec(), seed)
		if err != nil {
			t.Fatal(err)
		}
		driveChunk(t, a, c, pattern)
	}
	// Scrapes before the cycle drag the raw store's MaxTime to wall
	// clock; the analysis window must not follow it.
	if _, err := obs.SelfScrapeOnce(); err != nil {
		t.Fatalf("self-scrape: %v", err)
	}
	if _, err := plain.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("plain pipeline: %v", err)
	}
	if _, err := obs.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("observed pipeline with clock skew: %v", err)
	}
	if got, want := marshaledArtifact(t, obs), marshaledArtifact(t, plain); !bytes.Equal(got, want) {
		t.Fatalf("wall-clock self-scrape moved the analysis window (artifact %d vs %d bytes)", len(got), len(want))
	}

	// Second life over a store that only ever held self-telemetry: the
	// recovered high-water mark is all reserved-component data, so the
	// window holds nothing analyzable. That is "waiting for data", not a
	// pipeline failure.
	dir := t.TempDir()
	durable := obsOptions(func() int64 { return ts.Add(1) })
	durable.DataDir = dir
	first, err := New(durable)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.SelfScrapeOnce(); err != nil {
		t.Fatalf("self-scrape: %v", err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	second, err := New(durable)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if _, err := second.RunPipelineOnce(context.Background()); !errors.Is(err, ErrNoData) {
		t.Fatalf("pipeline over a self-telemetry-only store: err = %v, want ErrNoData", err)
	}

	// A life that held application data AND telemetry, restarted: the
	// recovered store's MaxTime is the telemetry clock, and an anchor
	// seeded from it could never come back down to application time. The
	// anchor must resume from application data — read from the block
	// indexes, without decoding a chunk — so the next life's cycles still
	// equal a self-scrape-off server fed the same ticks.
	durable.DataDir = t.TempDir()
	a, err := app.New(chainSpec(), seed)
	if err != nil {
		t.Fatal(err)
	}
	life1, hs1, c1 := newTestServer(t, durable)
	driveChunk(t, a, c1, pattern)
	if _, err := life1.SelfScrapeOnce(); err != nil {
		t.Fatalf("self-scrape: %v", err)
	}
	if _, err := life1.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("first life's cycle: %v", err)
	}
	hs1.Close()
	if err := life1.Close(); err != nil {
		t.Fatal(err)
	}
	life2, _, c2 := newTestServer(t, durable)
	defer life2.Close()
	if series, decoded := life2.store.Stats().Series, life2.store.Telemetry().ChunksDecoded.Value(); series < 50 || decoded != 0 {
		t.Fatalf("boot decoded %d chunks of a %d-series store, want 0", decoded, series)
	}
	more := loadgen.Random(seed+1, 30, 100, 1500)
	driveChunk(t, a, c2, more)
	if _, err := life2.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("cycle after a restart with the telemetry clock ahead: %v", err)
	}
	aPlain, err := app.New(chainSpec(), seed)
	if err != nil {
		t.Fatal(err)
	}
	plain2, _, cPlain2 := newTestServer(t, base)
	driveChunk(t, aPlain, cPlain2, append(pattern[:len(pattern):len(pattern)], more...))
	if _, err := plain2.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("plain pipeline: %v", err)
	}
	if got, want := marshaledArtifact(t, life2), marshaledArtifact(t, plain2); !bytes.Equal(got, want) {
		t.Fatalf("restarted self-scraping server diverged from the plain one (artifact %d vs %d bytes)", len(got), len(want))
	}

	// Application writes after the life's last self-scrape, then a
	// graceful shutdown: the store recovers the application mark, so the
	// next life boots anchored where this one ended and its first cycle,
	// with no new write, equals the plain server's over the same 120
	// ticks. (TestSelfScrapeHardStopAnchor covers a life that ends
	// without Close.)
	durable.DataDir = t.TempDir()
	a3, err := app.New(chainSpec(), seed)
	if err != nil {
		t.Fatal(err)
	}
	life3, hs3, c3 := newTestServer(t, durable)
	driveChunk(t, a3, c3, pattern)
	if _, err := life3.SelfScrapeOnce(); err != nil {
		t.Fatalf("self-scrape: %v", err)
	}
	driveChunk(t, a3, c3, more)
	anchor := life3.Store().AppMaxTime()
	hs3.Close()
	if err := life3.Close(); err != nil {
		t.Fatal(err)
	}
	life4, err := New(durable)
	if err != nil {
		t.Fatal(err)
	}
	defer life4.Close()
	if got := life4.Store().AppMaxTime(); got != anchor {
		t.Fatalf("window anchor after a graceful restart = %d, want %d (where the first life ended)", got, anchor)
	}
	if _, err := life4.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("first cycle after a graceful restart: %v", err)
	}
	if got, want := marshaledArtifact(t, life4), marshaledArtifact(t, plain2); !bytes.Equal(got, want) {
		t.Fatalf("first cycle after a graceful restart diverged from the plain server (artifact %d vs %d bytes)", len(got), len(want))
	}
}

// wallClockMS is a self-scrape clock seven orders of magnitude ahead of
// the chain app's timestamps, as a real wall clock is ahead of replayed
// or simulated application data.
func wallClockMS() func() int64 {
	var ts atomic.Int64
	ts.Store(1_700_000_000_000)
	return func() int64 { return ts.Add(1) }
}

// TestSelfScrapeRetentionKeepsApplicationData: retention ages blocks by
// the application high-water mark, so one self-scrape stamped by the
// wall clock cannot expire the application data it is far ahead of.
func TestSelfScrapeRetentionKeepsApplicationData(t *testing.T) {
	opts := obsOptions(wallClockMS())
	opts.DataDir = t.TempDir()
	opts.Retention = time.Hour
	opts.FlushInterval, opts.CompactInterval = -1, -1
	s, _, c := newTestServer(t, opts)
	defer s.Close()
	a, err := app.New(chainSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	driveChunk(t, a, c, loadgen.Random(1, 90, 100, 1500))
	if pts, err := readSeries(s, "lb", "lb_latency_ms"); err != nil || len(pts) != 90 {
		t.Fatalf("lb/lb_latency_ms holds %d points (%v), want 90", len(pts), err)
	}
	lbPoints := func() int {
		res, err := s.Store().QueryRange(context.Background(), tsdb.RangeQuery{Component: "lb", Metric: "*", From: 0, To: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range res {
			n += len(r.Points)
		}
		return n
	}
	before := lbPoints()
	if err := s.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SelfScrapeOnce(); err != nil {
		t.Fatalf("self-scrape: %v", err)
	}
	if err := s.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := lbPoints(); after != before {
		t.Fatalf("after a wall-clock self-scrape and a checkpoint the lb component holds %d of %d points", after, before)
	}
	if _, err := s.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("pipeline after retention: %v", err)
	}
}

// TestSelfScrapeHardStopAnchor: application writes land after the last
// self-scrape, then the server dies without Close. The next life anchors
// its window at the newest application sample, recovered by the store
// from blocks and WAL alike, not at anything the scrape recorded, and its
// first cycle equals a self-scrape-off server fed the same ticks.
func TestSelfScrapeHardStopAnchor(t *testing.T) {
	const seed = 13
	pattern, more := loadgen.Random(seed, 90, 100, 1500), loadgen.Random(seed+1, 30, 100, 1500)
	opts := obsOptions(wallClockMS())
	opts.DataDir = t.TempDir()
	opts.FlushInterval, opts.CompactInterval = -1, -1
	life1, hs1, c1 := newTestServer(t, opts)
	a, err := app.New(chainSpec(), seed)
	if err != nil {
		t.Fatal(err)
	}
	driveChunk(t, a, c1, pattern)
	if err := life1.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := life1.SelfScrapeOnce(); err != nil {
		t.Fatalf("self-scrape: %v", err)
	}
	driveChunk(t, a, c1, more)
	all, err := life1.Store().QueryRange(context.Background(), tsdb.RangeQuery{
		Component: "*", Metric: "*", From: 0, To: life1.Store().MaxTime() + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var newest int64
	for _, r := range all {
		if r.Component != tsdb.ReservedComponent {
			newest = max(newest, r.Points[len(r.Points)-1].T)
		}
	}
	hs1.Close() // hard stop: the store is abandoned with a live WAL

	life2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer life2.Close()
	if got := life2.Store().AppMaxTime(); got != newest || newest == 0 {
		t.Fatalf("window anchor after a hard stop = %d, want %d (the newest application sample)", got, newest)
	}
	if life2.Store().MaxTime() <= newest {
		t.Fatalf("MaxTime %d is not the scrape clock ahead of application time %d", life2.Store().MaxTime(), newest)
	}
	if _, err := life2.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("first cycle after a hard stop: %v", err)
	}
	plain, _, cPlain := newTestServer(t, Options{AppName: "chain", WindowMS: 64 * 500, CallGraph: chainGraph()})
	aPlain, err := app.New(chainSpec(), seed)
	if err != nil {
		t.Fatal(err)
	}
	driveChunk(t, aPlain, cPlain, append(pattern[:len(pattern):len(pattern)], more...))
	if _, err := plain.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("plain pipeline: %v", err)
	}
	if got, want := marshaledArtifact(t, life2), marshaledArtifact(t, plain); !bytes.Equal(got, want) {
		t.Fatalf("first cycle after a hard stop diverged from the plain server (artifact %d vs %d bytes)", len(got), len(want))
	}
}

// TestSelfScrapeRestartWithoutLoop: a durable store holding
// self-telemetry stamped inside the analysis window, reopened by a life
// that runs no self-scrape loop, still keeps the reserved component out
// of the pipeline — the artifact equals a server that never scraped.
func TestSelfScrapeRestartWithoutLoop(t *testing.T) {
	const seed = 7
	pattern := loadgen.Random(seed, 90, 100, 1500)
	var ts atomic.Int64
	opts := obsOptions(func() int64 { return ts.Add(500) })
	opts.DataDir = t.TempDir()
	opts.FlushInterval, opts.CompactInterval = -1, -1
	life1, hs1, c1 := newTestServer(t, opts)
	a, err := app.New(chainSpec(), seed)
	if err != nil {
		t.Fatal(err)
	}
	driveChunk(t, a, c1, pattern)
	ts.Store(life1.Store().AppMaxTime() - 15_000) // 20 scrapes, 500 ms apart, inside the window
	for i := 0; i < 20; i++ {
		if _, err := life1.SelfScrapeOnce(); err != nil {
			t.Fatalf("self-scrape %d: %v", i, err)
		}
	}
	hs1.Close()
	if err := life1.Close(); err != nil {
		t.Fatal(err)
	}
	opts.SelfScrapeInterval = 0
	life2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer life2.Close()
	if _, err := life2.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("cycle after a restart without the loop: %v", err)
	}
	plain, _, cPlain := newTestServer(t, Options{AppName: "chain", WindowMS: 64 * 500, CallGraph: chainGraph()})
	aPlain, err := app.New(chainSpec(), seed)
	if err != nil {
		t.Fatal(err)
	}
	driveChunk(t, aPlain, cPlain, pattern)
	if _, err := plain.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("plain pipeline: %v", err)
	}
	if got, want := marshaledArtifact(t, life2), marshaledArtifact(t, plain); !bytes.Equal(got, want) {
		t.Fatalf("recovered self-telemetry reached the pipeline (artifact %d vs %d bytes)", len(got), len(want))
	}
}

// TestHealthzReadiness pins the probe semantics: /healthz is always
// 200 (liveness), /readyz flips to 503 when the online loop goes
// silent for 3x the interval, and both a completed cycle and an
// ErrNoData skip count as liveness.
func TestHealthzReadiness(t *testing.T) {
	s, hs, _ := newTestServer(t, Options{Interval: time.Second})

	decode := func(body []byte) HealthResponse {
		var h HealthResponse
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("decoding health body: %v", err)
		}
		return h
	}

	status, _, body := getBody(t, hs.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("/healthz status = %d", status)
	}
	h := decode(body)
	if h.Status != "ok" || !h.Checks["pipeline"].OK || h.Checks["pipeline"].Detail != "driver not started" {
		t.Fatalf("fresh server health = %+v", h)
	}

	// Driver started long ago, no cycle since: stalled.
	s.driverStartNS.Store(time.Now().Add(-time.Minute).UnixNano())
	status, _, body = getBody(t, hs.URL+"/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("stalled /readyz status = %d, want 503", status)
	}
	if h = decode(body); h.Status != "degraded" || h.Checks["pipeline"].OK {
		t.Fatalf("stalled health = %+v", h)
	}
	// Liveness is unaffected.
	if status, _, _ = getBody(t, hs.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("stalled /healthz status = %d, want 200", status)
	}

	// A completed cycle refreshes readiness.
	s.lastCycleNS.Store(time.Now().UnixNano())
	if status, _, _ = getBody(t, hs.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("/readyz after cycle = %d, want 200", status)
	}

	// So does an ErrNoData skip: an unfilled window is waiting, not
	// stalled.
	s.lastCycleNS.Store(0)
	s.lastNoDataNS.Store(time.Now().UnixNano())
	if status, _, _ = getBody(t, hs.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("/readyz after ErrNoData = %d, want 200", status)
	}

	// The real path sets the stamps too: RunPipelineOnce on an empty
	// store is an ErrNoData skip.
	s.lastNoDataNS.Store(0)
	s.driverStartNS.Store(time.Now().Add(-time.Minute).UnixNano())
	if _, err := s.RunPipelineOnce(context.Background()); err == nil {
		t.Fatal("pipeline on empty store should fail")
	}
	if s.lastNoDataNS.Load() == 0 {
		t.Fatal("ErrNoData run did not stamp lastNoDataNS")
	}
	if status, _, _ = getBody(t, hs.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("/readyz after real ErrNoData run = %d, want 200", status)
	}
}

// TestDebugTracesRecordsSlowOps drops the slow-op threshold to 1ns so
// every request is "slow", then pins the /debug/traces contract:
// slowest-first ordering, the ?n bound, and per-op annotations.
func TestDebugTracesRecordsSlowOps(t *testing.T) {
	_, hs, c := newTracingTestServer(t, obsOptions(func() int64 { return 1 }), time.Nanosecond)

	payload := tsdb.EncodeLineProtocol([]tsdb.Sample{
		{Component: "web", Metric: "cpu", T: 1000, V: 0.5},
		{Component: "web", Metric: "cpu", T: 1500, V: 0.6},
	})
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryRange(tsdb.RangeQuery{Component: "*", Metric: "*", From: 0, To: 1 << 40}); err != nil {
		t.Fatal(err)
	}

	status, _, body := getBody(t, hs.URL+"/debug/traces")
	if status != http.StatusOK {
		t.Fatalf("/debug/traces status = %d", status)
	}
	var tr TracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("decoding traces: %v", err)
	}
	if tr.Total < 2 || len(tr.Traces) < 2 {
		t.Fatalf("traces = %d retained / %d total, want >= 2", len(tr.Traces), tr.Total)
	}
	ops := map[string]bool{}
	for i, tc := range tr.Traces {
		ops[tc.Op] = true
		if i > 0 && tc.Millis > tr.Traces[i-1].Millis {
			t.Fatalf("traces not slowest-first at %d: %v then %v", i, tr.Traces[i-1].Millis, tc.Millis)
		}
	}
	if !ops["write"] || !ops["query_range"] {
		t.Fatalf("traced ops = %v, want write and query_range", ops)
	}
	fieldsOf := func(op string) map[string]string {
		fields := map[string]string{}
		for _, tc := range tr.Traces {
			if tc.Op == op {
				for _, f := range tc.Fields {
					fields[f.Key] = f.Value
				}
				break
			}
		}
		return fields
	}
	if fields := fieldsOf("write"); fields["samples"] != "2" {
		t.Fatalf("write trace fields = %v, want samples=2", fields)
	}
	if fields := fieldsOf("query_range"); fields["results"] != "1" || fields["segments"] != "1" {
		t.Fatalf("query_range trace fields = %v, want results=1 segments=1", fields)
	}

	status, _, body = getBody(t, hs.URL+"/debug/traces?n=1")
	if err := json.Unmarshal(body, &tr); err != nil || status != http.StatusOK {
		t.Fatalf("traces?n=1: status %d err %v", status, err)
	}
	if len(tr.Traces) != 1 {
		t.Fatalf("traces?n=1 returned %d", len(tr.Traces))
	}
	if status, _, _ = getBody(t, hs.URL+"/debug/traces?n=bogus"); status != http.StatusBadRequest {
		t.Fatalf("traces?n=bogus status = %d, want 400", status)
	}
}

// TestTelemetryConcurrentAccess hammers every observability surface of
// a freshly built durable server at once — ingest, /metrics exposition,
// self-scrape writes, checkpoints, compaction passes, pipeline cycles,
// /debug/traces and /healthz readers — and then lints the final
// exposition. Nothing is set up or ordered first: the store was born
// with the instruments every one of these goroutines updates. Run under
// -race in CI, this is the pin that the atomic instruments, the trace
// ring, and the health stamps are safe against the server's real
// concurrency.
func TestTelemetryConcurrentAccess(t *testing.T) {
	var ts atomic.Int64
	opts := obsOptions(func() int64 { return ts.Add(1) })
	opts.DataDir = t.TempDir()
	opts.FlushInterval, opts.CompactInterval = -1, -1 // driven below
	opts.Downsample = true
	s, hs, c := newTracingTestServer(t, opts, time.Nanosecond)
	defer s.Close()

	var tick atomic.Int64
	writeBatch := func(w int) []byte {
		base := tick.Add(1) * 500
		samples := make([]tsdb.Sample, 0, 16)
		for comp := 0; comp < 4; comp++ {
			for m := 0; m < 4; m++ {
				samples = append(samples, tsdb.Sample{
					Component: fmt.Sprintf("web-%d", comp),
					Metric:    fmt.Sprintf("m%d", m),
					T:         base,
					V:         float64((int(base/500)*7+comp*3+m)%13) + 0.25*float64(m),
				})
			}
		}
		return tsdb.EncodeLineProtocol(samples)
	}
	var wg sync.WaitGroup
	run := func(n int, fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				fn(i)
			}
		}()
	}
	// The store's background work and the pipeline would finish their
	// rounds on an empty store before the first write lands, so they
	// keep going for as long as a writer is still writing.
	var writers sync.WaitGroup
	writersDone := make(chan struct{})
	whileWriting := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-writersDone:
					return
				default:
					fn()
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		w := w
		writers.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer writers.Done()
			for i := 0; i < 96; i++ { // 192 ticks: cycles can run from the 64th on
				if _, err := c.Write(writeBatch(w)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	go func() { writers.Wait(); close(writersDone) }()
	whileWriting(func() {
		if err := s.store.Checkpoint(); err != nil {
			t.Error(err)
		}
	})
	whileWriting(func() {
		if err := s.store.Compact(); err != nil {
			t.Error(err)
		}
	})
	whileWriting(func() { _, _ = s.RunPipelineOnce(context.Background()) })
	run(20, func(int) { getBody(t, hs.URL+"/metrics") })
	run(20, func(int) {
		if _, err := s.SelfScrapeOnce(); err != nil {
			t.Error(err)
		}
	})
	run(20, func(int) { getBody(t, hs.URL+"/debug/traces") })
	run(20, func(int) { getBody(t, hs.URL+"/healthz") })
	run(10, func(int) {
		if _, err := c.QueryRange(tsdb.RangeQuery{Component: "web*", Metric: "*", From: 0, To: 1 << 40}); err != nil {
			t.Error(err)
		}
	})
	wg.Wait()

	_, _, body := getBody(t, hs.URL+"/metrics")
	if err := telemetry.Lint(body); err != nil {
		t.Fatalf("post-hammer exposition failed lint: %v", err)
	}
	tel := s.store.Telemetry()
	if tel.BlockPublishes.Value() == 0 || tel.CompactionsRun.Value() == 0 || s.tel.pipelineRuns.Value() == 0 {
		t.Fatalf("hammer never overlapped real work: %d blocks published, %d compaction passes, %d cycles",
			tel.BlockPublishes.Value(), tel.CompactionsRun.Value(), s.tel.pipelineRuns.Value())
	}
}
