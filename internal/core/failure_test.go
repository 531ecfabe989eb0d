package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/loadgen"
	"github.com/sieve-microservices/sieve/internal/metrics"
	"github.com/sieve-microservices/sieve/internal/timeseries"
	"github.com/sieve-microservices/sieve/internal/trace"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// labTracerCapacity is the syscall ring lab.Capture traces into.
const labTracerCapacity = 1 << 18

// captureByHand is lab.Capture's wiring with what lab.Capture fixes left
// open, so this package's tests get captured windows (lab imports core,
// so they cannot call it) and the degraded captures below can be
// produced: it scrapes every scrapeEvery-th tick, traces into a ring of
// tracerCap events, and calls onTick (when non-nil) after each tick. With
// scrapeEvery 1 and labTracerCapacity it captures what lab.Capture does.
// It returns the whole capture's dataset, the tracer and the store.
func captureByHand(t testing.TB, a *app.App, p loadgen.Pattern, scrapeEvery, tracerCap int, onTick func(tick int)) (*Dataset, *trace.Tracer, *tsdb.Sharded) {
	t.Helper()
	db := tsdb.NewSharded(1)
	coll, err := metrics.NewCollector(db, a.Registries()...)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTracer(tracerCap, nil)
	a.AttachTracer(tr)
	start := a.Now()
	loadgen.Drive(a, p, func(tick int, nowMS int64) {
		if tick%scrapeEvery == 0 {
			if _, err := coll.ScrapeOnce(nowMS); err != nil {
				t.Fatal(err)
			}
		}
		if onTick != nil {
			onTick(tick)
		}
	})
	ds, err := DatasetFromDB(db, a.Name(), a.TickMS(), start, a.Now())
	if err != nil {
		t.Fatal(err)
	}
	ds.CallGraph = callgraph.FromSyscallEvents(tr.Events())
	return ds, tr, db
}

// artifactByHand is lab.Run over captureByHand's every-tick capture:
// steps 2 and 3 at the paper's parameters.
func artifactByHand(t testing.TB, a *app.App, p loadgen.Pattern) *Artifact {
	t.Helper()
	ds, _, _ := captureByHand(t, a, p, 1, labTracerCapacity, nil)
	red, err := ReduceContext(context.Background(), ds, ReduceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	graph, err := IdentifyDependenciesContext(context.Background(), ds, red, DepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &Artifact{App: a.Name(), Dataset: ds, Reduction: red, Graph: graph}
}

// TestPipelineSurvivesScrapeGaps injects gaps into the capture (dropped
// scrapes, as from timeouts or lost packets) and checks the pipeline
// still produces a usable artifact via spline reconstruction (§3.2).
func TestPipelineSurvivesScrapeGaps(t *testing.T) {
	a, err := app.New(chainSpec(), 13)
	if err != nil {
		t.Fatal(err)
	}
	// Scrape only every 3rd tick: two thirds of the grid slots are gaps
	// the resampler has to reconstruct.
	ds, _, _ := captureByHand(t, a, loadgen.Random(4, 180, 100, 1500), 3, labTracerCapacity, nil)
	s := ds.Get("api", "api_latency_ms_mean")
	if s == nil {
		t.Fatal("series missing")
	}
	if s.Len() != 180 {
		t.Fatalf("series length = %d, want full 180-slot grid", s.Len())
	}
	if timeseries.HasNaN(s.Values) {
		t.Fatal("gaps not reconstructed")
	}
	red, err := ReduceContext(context.Background(), ds, DefaultReduceOptions())
	if err != nil {
		t.Fatal(err)
	}
	graph, err := IdentifyDependenciesContext(context.Background(), ds, red, DepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if graph.Tested == 0 {
		t.Error("no pairs tested on gappy capture")
	}
}

// TestPipelineSurvivesMetricAppearingMidRun verifies that lazily-created
// series (error paths firing late) are clamped into full-grid series and
// do not break reduction.
func TestPipelineSurvivesMetricAppearingMidRun(t *testing.T) {
	spec := chainSpec()
	// The fault makes the db emit a new series; arm it halfway through
	// the capture.
	spec.Components[2].Families = append(spec.Components[2].Families,
		app.Family{Base: "late_series", Driver: app.DriverErrors, Phase: app.PhaseFaultyOnly})
	b, err := app.New(spec, 17)
	if err != nil {
		t.Fatal(err)
	}
	ds, _, _ := captureByHand(t, b, loadgen.Constant(200, 120), 1, labTracerCapacity, func(tick int) {
		if tick == 60 {
			b.SetFault(true)
		}
	})
	s := ds.Get("db", "late_series")
	if s == nil {
		t.Fatal("late series not captured")
	}
	if s.Len() != 120 {
		t.Fatalf("late series length = %d, want clamped to the full grid", s.Len())
	}
	if _, err := ReduceContext(context.Background(), ds, DefaultReduceOptions()); err != nil {
		t.Fatalf("reduction failed on late series: %v", err)
	}
}

// TestPipelineSurvivesTracerOverflow forces ring-buffer drops and checks
// the call graph stays usable (connect/accept pairs may be lost, but the
// pipeline must not fail).
func TestPipelineSurvivesTracerOverflow(t *testing.T) {
	a, err := app.New(chainSpec(), 19)
	if err != nil {
		t.Fatal(err)
	}
	ds, tr, _ := captureByHand(t, a, loadgen.Constant(500, 150), 1, 16, nil)
	if tr.Stats().Dropped == 0 {
		t.Fatal("test setup: expected ring drops")
	}
	// The graph may be partial but the pipeline completes.
	red, err := ReduceContext(context.Background(), ds, DefaultReduceOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IdentifyDependenciesContext(context.Background(), ds, red, DepOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestReduceSurvivesPathologicalSeries feeds constant, spiky and
// NaN-tainted series through reduction directly.
func TestReduceSurvivesPathologicalSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mk := func(vals []float64) *timeseries.Regular {
		return &timeseries.Regular{StepMS: 500, Values: vals}
	}
	noisy := make([]float64, 60)
	spiky := make([]float64, 60)
	nan := make([]float64, 60)
	for i := range noisy {
		noisy[i] = rng.NormFloat64()
		if i == 30 {
			spiky[i] = 1e12
		}
		nan[i] = rng.NormFloat64()
	}
	nan[10] = nan[10] * 0 / 0 // NaN

	ds := &Dataset{
		App:    "patho",
		StepMS: 500,
		End:    60 * 500,
		Series: map[string]map[string]*timeseries.Regular{
			"c": {
				"constant": mk(make([]float64, 60)),
				"noisy":    mk(noisy),
				"spiky":    mk(spiky),
				"nan":      mk(nan),
			},
		},
	}
	red, err := ReduceContext(context.Background(), ds, DefaultReduceOptions())
	if err != nil {
		t.Fatal(err)
	}
	cr := red["c"]
	if !containsStr(cr.Filtered, "constant") {
		t.Error("constant series must be filtered")
	}
	if !containsStr(cr.Filtered, "nan") {
		t.Error("NaN series must be filtered, not clustered")
	}
	for _, c := range cr.Clusters {
		if c.Representative == "" {
			t.Error("cluster without representative")
		}
	}
}

// TestDatasetFromDBSkipsUnusableSeries covers series entirely outside
// the capture window.
func TestDatasetFromDBSkipsUnusableSeries(t *testing.T) {
	db := tsdb.NewSharded(1)
	db.WriteSamples([]tsdb.Sample{
		{Component: "a", Metric: "inside", T: 100, V: 1},
		{Component: "a", Metric: "inside", T: 600, V: 2},
		{Component: "b", Metric: "outside", T: 99999, V: 3},
	}, 0)
	ds, err := DatasetFromDB(db, "x", 500, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Get("a", "inside") == nil {
		t.Error("in-window series lost")
	}
	if ds.Get("b", "outside") != nil {
		t.Error("out-of-window series must be skipped")
	}
	// Malformed requests are rejected as such — never as ErrNoSeries,
	// which the online driver reads as "waiting for data".
	for _, bad := range []struct {
		name             string
		step, start, end int64
	}{
		{"empty window", 500, 1000, 1000},
		{"zero step", 0, 0, 1000},
		{"negative step", -500, 0, 1000},
	} {
		if _, err := DatasetFromDB(db, "x", bad.step, bad.start, bad.end); err == nil || errors.Is(err, ErrNoSeries) {
			t.Errorf("%s: err = %v, want a rejection distinct from ErrNoSeries", bad.name, err)
		}
	}
}
