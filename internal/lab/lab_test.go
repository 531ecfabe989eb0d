package lab

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/loadgen"
)

// chainSpec is the three-tier app (lb -> api -> db) internal/core's tests
// analyse: clusterable metric families, constants for the variance
// filter, and counters for the stationarity path.
func chainSpec() app.Spec {
	return app.Spec{
		Name:   "chain",
		TickMS: 500,
		Components: []app.ComponentSpec{
			{
				Name: "lb", Addr: "10.9.0.1:80", ServiceMS: 1, CapacityPerInstance: 2000,
				Entry: true, Calls: []app.Call{{Target: "api", Prob: 1}},
				Families: []app.Family{
					{Base: "lb_rate", Driver: app.DriverRate, Noise: 0.03, Variants: []string{"mean", "p95", "max"}},
					{Base: "lb_latency_ms", Driver: app.DriverLatency, Noise: 0.03, Variants: []string{"mean", "p99"}},
					{Base: "lb_bytes_total", Driver: app.DriverRate, Scale: 100, Counter: true},
				},
				Constants: map[string]float64{"lb_version": 2, "lb_limit": 100},
			},
			{
				Name: "api", Addr: "10.9.0.2:8080", ServiceMS: 12, CapacityPerInstance: 400,
				Calls: []app.Call{{Target: "db", Prob: 0.8}},
				Families: []app.Family{
					{Base: "api_rate", Driver: app.DriverRate, Noise: 0.03, Variants: []string{"mean", "p95"}},
					{Base: "api_latency_ms", Driver: app.DriverLatency, Noise: 0.03, Variants: []string{"mean", "p95", "p99"}},
					{Base: "api_mem_mb", Driver: app.DriverMemory, Noise: 0.02},
				},
				Constants: map[string]float64{"api_version": 3},
			},
			{
				Name: "db", Addr: "10.9.0.3:5432", ServiceMS: 5, CapacityPerInstance: 1500,
				Families: []app.Family{
					{Base: "db_rate", Driver: app.DriverRate, Noise: 0.03, Variants: []string{"mean", "p95"}},
					{Base: "db_latency_ms", Driver: app.DriverOwnLatency, Noise: 0.03},
				},
				Constants: map[string]float64{"db_version": 1},
			},
		},
	}
}

func TestCaptureProducesDatasetAndCallGraph(t *testing.T) {
	a, err := app.New(chainSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Capture(context.Background(), a, loadgen.Random(5, 120, 100, 1500), CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds := res.Dataset
	if got := ds.Components(); len(got) != 3 {
		t.Fatalf("components = %v", got)
	}
	if ds.StepMS != a.TickMS() || ds.Start != 0 || ds.End != a.Now() {
		t.Errorf("window = [%d,%d) step %d", ds.Start, ds.End, ds.StepMS)
	}
	// All metrics captured: lb has 3+2+1 family metrics + 2 constants.
	if got := len(ds.MetricNames("lb")); got != 8 {
		t.Errorf("lb metrics = %d (%v), want 8", got, ds.MetricNames("lb"))
	}
	if ds.TotalMetrics() != 8+7+4 {
		t.Errorf("total metrics = %d, want 19", ds.TotalMetrics())
	}
	if pairs := ds.CallGraph.CommunicatingPairs(); !slices.Contains(pairs, [2]string{"api", "lb"}) || !slices.Contains(pairs, [2]string{"api", "db"}) {
		t.Error("call graph incomplete")
	}
	// Every series spans the full grid.
	s := ds.Get("api", "api_latency_ms_mean")
	if s == nil || s.Len() != 120 {
		t.Fatalf("api latency series = %+v", s)
	}
	if res.DB.Stats().Points == 0 || res.Collector.Stats().Scrapes != 120 {
		t.Error("monitoring accounting missing")
	}
}

func TestCaptureEmptyPattern(t *testing.T) {
	a, err := app.New(chainSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Capture(context.Background(), a, nil, CaptureOptions{}); err == nil {
		t.Error("expected error for empty pattern")
	}
}

// TestCaptureStopsAtFirstFailedScrape: a NaN load makes every metric
// non-finite, so the store refuses the first scrape; the capture returns
// that error without stepping the rest of the pattern.
func TestCaptureStopsAtFirstFailedScrape(t *testing.T) {
	a, err := app.New(chainSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Capture(context.Background(), a, loadgen.Constant(math.NaN(), 30), CaptureOptions{})
	if err == nil || !strings.Contains(err.Error(), "lab: scraping during capture") || !strings.Contains(err.Error(), "non-finite value") {
		t.Fatalf("Capture = %v, want the wrapped non-finite parse error", err)
	}
	if a.Now() != a.TickMS() {
		t.Errorf("app stepped to %d ms, want one tick (%d ms)", a.Now(), a.TickMS())
	}
}

func TestCaptureWithAllowlist(t *testing.T) {
	a, err := app.New(chainSpec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Capture(context.Background(), a, loadgen.Constant(200, 50), CaptureOptions{
		Allowlist: []string{"lb/lb_rate_mean", "api/api_latency_ms_mean"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Dataset.TotalMetrics(); got != 2 {
		t.Errorf("allowlisted capture has %d series, want 2", got)
	}
}

// canceledAtTick is a context that reports cancellation once the
// simulated application has advanced tick ticks: the capture loop polls
// Err between steps, so this cancels it mid-load at an exact tick.
type canceledAtTick struct {
	context.Context
	a    *app.App
	tick int64
}

func (c canceledAtTick) Err() error {
	if c.a.Now() >= c.tick*c.a.TickMS() {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestCaptureContextCancelMidLoad asserts cancellation during the load
// phase aborts the drive loop promptly instead of draining the pattern.
func TestCaptureContextCancelMidLoad(t *testing.T) {
	a, err := app.New(chainSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	const cancelAt = 10
	ctx := canceledAtTick{Context: context.Background(), a: a, tick: cancelAt}
	_, err = Capture(ctx, a, loadgen.Constant(500, 100000), CaptureOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ticks := a.Now() / a.TickMS(); ticks > cancelAt+1 {
		t.Errorf("app advanced %d ticks after cancellation at tick %d", ticks, cancelAt)
	}
}

func TestRunFullPipeline(t *testing.T) {
	a, err := app.New(chainSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	art, capture, err := Run(context.Background(), a, loadgen.Random(9, 200, 100, 1500), PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if art.App != "chain" || art.Dataset == nil || art.Reduction == nil || art.Graph == nil {
		t.Fatalf("incomplete artifact: %+v", art)
	}
	if capture.DB == nil {
		t.Error("capture handles missing")
	}
	if len(art.Graph.Edges) == 0 {
		t.Error("pipeline found no dependencies")
	}
}
