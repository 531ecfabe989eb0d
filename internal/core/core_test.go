package core

import (
	"context"
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

// captureChain captures the chain app (seed 11) under a random load of
// the given length, scraping every tick.
func captureChain(t *testing.T, ticks int) *Dataset {
	t.Helper()
	a, err := app.New(chainSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	ds, _, _ := captureByHand(t, a, loadgen.Random(5, ticks, 100, 1500), 1, labTracerCapacity, nil)
	return ds
}

func TestReduceFiltersConstantsAndClustersVariants(t *testing.T) {
	ds := captureChain(t, 150)
	red, err := ReduceContext(context.Background(), ds, DefaultReduceOptions())
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
	ds := captureChain(t, 8)
	red, err := ReduceContext(context.Background(), ds, DefaultReduceOptions())
	if err != nil {
		t.Fatal(err)
	}
	if red.TotalAfter() < 2 {
		t.Fatalf("%d representatives: no pair to test", red.TotalAfter())
	}
	graph, err := IdentifyDependenciesContext(context.Background(), ds, red, DepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if graph.Tested != 0 || len(graph.Edges) != 0 {
		t.Fatalf("%d pairs tested, %d edges on 8-step series; want 0 and 0", graph.Tested, len(graph.Edges))
	}
}

func TestIdentifyDependenciesFindsChain(t *testing.T) {
	ds := captureChain(t, 200)
	red, err := ReduceContext(context.Background(), ds, DefaultReduceOptions())
	if err != nil {
		t.Fatal(err)
	}
	graph, err := IdentifyDependenciesContext(context.Background(), ds, red, DepOptions{})
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
	ds := captureChain(t, 100)
	ds.CallGraph = nil
	red, err := ReduceContext(context.Background(), ds, DefaultReduceOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IdentifyDependenciesContext(context.Background(), ds, red, DepOptions{}); err == nil {
		t.Error("expected error without call graph")
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
