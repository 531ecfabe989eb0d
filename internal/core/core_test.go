package core

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/loadgen"
)

// chainSpec is a three-tier app (lb -> api -> db) with clusterable metric
// families, constants for the variance filter, and counters for the
// stationarity path.
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

func captureChain(t *testing.T, ticks int) (*CaptureResult, *app.App) {
	t.Helper()
	a, err := app.New(chainSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Capture(a, loadgen.Random(5, ticks, 100, 1500), CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res, a
}

func TestCaptureProducesDatasetAndCallGraph(t *testing.T) {
	res, a := captureChain(t, 120)
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
	if _, err := Capture(a, nil, CaptureOptions{}); err == nil {
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
	_, err = Capture(a, loadgen.Constant(math.NaN(), 30), CaptureOptions{})
	if err == nil || !strings.Contains(err.Error(), "core: scraping during capture") || !strings.Contains(err.Error(), "non-finite value") {
		t.Fatalf("Capture = %v, want the wrapped non-finite parse error", err)
	}
	if a.Now() != a.TickMS() {
		t.Errorf("app stepped to %d ms, want one tick (%d ms)", a.Now(), a.TickMS())
	}
}

func TestReduceFiltersConstantsAndClustersVariants(t *testing.T) {
	res, _ := captureChain(t, 150)
	red, err := ReduceContext(context.Background(), res.Dataset, DefaultReduceOptions())
	if err != nil {
		t.Fatal(err)
	}
	lb := red["lb"]
	if lb == nil {
		t.Fatal("no reduction for lb")
	}
	if lb.Total != 8 {
		t.Errorf("lb total = %d, want 8", lb.Total)
	}
	// Both constants must be filtered.
	if !containsStr(lb.Filtered, "lb_version") || !containsStr(lb.Filtered, "lb_limit") {
		t.Errorf("filtered = %v, want constants removed", lb.Filtered)
	}
	// The rate variants share a driver; they must land in one cluster.
	api := red["api"]
	if api.Assignments["api_rate_mean"] != api.Assignments["api_rate_p95"] {
		t.Errorf("rate variants split: %v", api.Assignments)
	}
	// Representatives are cluster members.
	for _, c := range api.Clusters {
		if !containsStr(c.Metrics, c.Representative) {
			t.Errorf("representative %q not in cluster %v", c.Representative, c.Metrics)
		}
	}
	// Reduction must be substantial: 19 metrics -> at most ~12 reps.
	if red.TotalAfter() >= red.TotalBefore() {
		t.Errorf("no reduction: %d -> %d", red.TotalBefore(), red.TotalAfter())
	}
	// Allowlist keys are well-formed.
	for _, k := range red.AllowlistKeys() {
		if !strings.Contains(k, "/") {
			t.Errorf("malformed allowlist key %q", k)
		}
	}
}

// TestIdentifyDependenciesCountsOnlyTestsThatRan: on a capture shorter
// than Granger's minimum every pair test fails with ErrSeriesTooShort,
// so none is counted as tested.
func TestIdentifyDependenciesCountsOnlyTestsThatRan(t *testing.T) {
	res, _ := captureChain(t, 8)
	red, err := ReduceContext(context.Background(), res.Dataset, DefaultReduceOptions())
	if err != nil {
		t.Fatal(err)
	}
	if red.TotalAfter() < 2 {
		t.Fatalf("%d representatives: no pair to test", red.TotalAfter())
	}
	graph, err := IdentifyDependenciesContext(context.Background(), res.Dataset, red, DepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if graph.Tested != 0 || len(graph.Edges) != 0 {
		t.Fatalf("%d pairs tested, %d edges on 8-step series; want 0 and 0", graph.Tested, len(graph.Edges))
	}
}

func TestIdentifyDependenciesFindsChain(t *testing.T) {
	res, _ := captureChain(t, 200)
	red, err := ReduceContext(context.Background(), res.Dataset, DefaultReduceOptions())
	if err != nil {
		t.Fatal(err)
	}
	graph, err := IdentifyDependenciesContext(context.Background(), res.Dataset, red, DepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if graph.Tested == 0 {
		t.Fatal("no pairs tested")
	}
	if len(graph.Edges) == 0 {
		t.Fatal("no dependencies found on a causal chain")
	}
	// Edges must only connect communicating components.
	validPairs := map[[2]string]bool{
		{"lb", "api"}: true, {"api", "lb"}: true,
		{"api", "db"}: true, {"db", "api"}: true,
	}
	for _, e := range graph.Edges {
		if !validPairs[[2]string{e.From, e.To}] {
			t.Errorf("edge between non-communicating pair: %+v", e)
		}
		if e.PValue < 0 || e.PValue >= 0.05 {
			t.Errorf("edge with invalid p-value: %+v", e)
		}
		if e.LagMS <= 0 {
			t.Errorf("edge with non-positive lag: %+v", e)
		}
	}
	// Both communicating pairs must be connected by at least one edge in
	// some direction. (Latency dependencies legitimately point upstream:
	// the callee's lagged latency predicts the caller's end-to-end
	// latency. Rate metrics are often bidirectionally confounded by the
	// shared external load and filtered.)
	pairs := graph.ComponentPairs()
	connected := map[[2]string]bool{}
	for _, p := range pairs {
		a, b := p[0], p[1]
		if a > b {
			a, b = b, a
		}
		connected[[2]string{a, b}] = true
	}
	if !connected[[2]string{"api", "lb"}] {
		t.Errorf("lb/api pair unconnected; edges: %+v", graph.Edges)
	}
	if !connected[[2]string{"api", "db"}] {
		t.Errorf("api/db pair unconnected; edges: %+v", graph.Edges)
	}
	// Most-frequent metric must be set and well-formed.
	key, n := graph.MostFrequentMetric()
	if key == "" || n == 0 || !strings.Contains(key, "/") {
		t.Errorf("most frequent metric = %q (%d)", key, n)
	}
	// DOT output is renderable.
	if dot := graph.DOT(); !strings.Contains(dot, "digraph dependencies") {
		t.Errorf("DOT = %q", dot)
	}
}

func TestIdentifyDependenciesRequiresCallGraph(t *testing.T) {
	res, _ := captureChain(t, 100)
	res.Dataset.CallGraph = nil
	red, err := ReduceContext(context.Background(), res.Dataset, DefaultReduceOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IdentifyDependenciesContext(context.Background(), res.Dataset, red, DepOptions{}); err == nil {
		t.Error("expected error without call graph")
	}
}

func TestRunFullPipeline(t *testing.T) {
	a, err := app.New(chainSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	art, capture, err := Run(a, loadgen.Random(9, 200, 100, 1500), PipelineOptions{})
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

func TestCaptureWithAllowlist(t *testing.T) {
	a, err := app.New(chainSpec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Capture(a, loadgen.Constant(200, 50), CaptureOptions{
		Allowlist: []string{"lb/lb_rate_mean", "api/api_latency_ms_mean"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Dataset.TotalMetrics(); got != 2 {
		t.Errorf("allowlisted capture has %d series, want 2", got)
	}
}

func containsStr(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
