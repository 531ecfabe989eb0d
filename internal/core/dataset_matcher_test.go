package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sieve-microservices/sieve/internal/timeseries"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// refDataset is the materializing reference for dataset assembly: one raw
// QueryRange over the window, then timeseries.Resample per series — what
// DatasetFromDB did before it streamed, and what its scan must still
// equal bit for bit.
func refDataset(t *testing.T, store *tsdb.Sharded, appName string, stepMS, start, end int64) *Dataset {
	t.Helper()
	results, err := store.QueryRange(context.Background(), tsdb.RangeQuery{Component: "*", Metric: "*", From: start, To: end})
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{
		App:    appName,
		StepMS: stepMS,
		Start:  start,
		End:    end,
		Series: map[string]map[string]*timeseries.Regular{},
	}
	for _, res := range results {
		raw := &timeseries.Series{Name: res.Metric}
		for _, p := range res.Points {
			raw.Points = append(raw.Points, timeseries.Point{T: p.T, V: p.V})
		}
		reg, err := timeseries.Resample(raw, start, end, stepMS)
		if err != nil {
			continue // no usable points in the window: skipped, not fatal
		}
		if ds.Series[res.Component] == nil {
			ds.Series[res.Component] = map[string]*timeseries.Regular{}
		}
		ds.Series[res.Component][res.Metric] = reg
	}
	return ds
}

// TestDatasetFromDBMatcherEquivalence pins DatasetFromDB's streaming scan
// against the materializing reference: the dataset — and a marshaled
// pipeline artifact — must be bit-identical to resampling each series'
// raw query result, at shard counts {1, 4}.
func TestDatasetFromDBMatcherEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var samples []tsdb.Sample
	for i := 0; i < 900; i++ {
		for c := 0; c < 3; c++ {
			for m := 0; m < 3; m++ {
				samples = append(samples, tsdb.Sample{
					Component: fmt.Sprintf("svc-%d", c),
					Metric:    fmt.Sprintf("metric_%d", m),
					T:         int64(i) * 500,
					V:         rng.NormFloat64()*10 + float64(c*m),
				})
			}
		}
	}
	// One series entirely outside the window: both paths must skip it.
	samples = append(samples, tsdb.Sample{Component: "svc-0", Metric: "late", T: 10_000_000, V: 1})

	stores := map[string]*tsdb.Sharded{"shards=1": tsdb.NewSharded(1), "sharded": tsdb.NewSharded(4)}
	for name, store := range stores {
		t.Run(name, func(t *testing.T) {
			if err := store.WriteSamples(samples, 0); err != nil {
				t.Fatal(err)
			}
			const start, end, step = 0, 450_000, 500
			viaScan, err := DatasetFromDB(store, "app", step, start, end)
			if err != nil {
				t.Fatal(err)
			}
			viaRef := refDataset(t, store, "app", step, start, end)
			if !reflect.DeepEqual(viaScan.Series, viaRef.Series) {
				t.Fatal("scanned dataset differs from the resample-per-series reference")
			}
			if viaScan.Get("svc-0", "late") != nil {
				t.Fatal("out-of-window series must be skipped")
			}

			// Full artifact round trip: reduce both datasets and compare the
			// serialized artifacts byte for byte.
			marshal := func(ds *Dataset) []byte {
				t.Helper()
				red, err := ReduceContext(context.Background(), ds, DefaultReduceOptions())
				if err != nil {
					t.Fatal(err)
				}
				data, err := MarshalArtifact(&Artifact{App: "app", Dataset: ds, Reduction: red, Graph: &DependencyGraph{}})
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			if a, b := marshal(viaScan), marshal(viaRef); !bytes.Equal(a, b) {
				t.Fatal("marshaled artifacts differ between the scanned and reference datasets")
			}
		})
	}
}

// TestDatasetFromDBUsesSingleMatcherQuery pins the store traffic of one
// assembly: exactly one matcher scan, over exactly the window.
func TestDatasetFromDBUsesSingleMatcherQuery(t *testing.T) {
	store := &countingStore{Sharded: tsdb.NewSharded(2)}
	if err := store.WriteSamples([]tsdb.Sample{
		{Component: "a", Metric: "m", T: 0, V: 1},
		{Component: "a", Metric: "m", T: 500, V: 2},
		{Component: "b", Metric: "n", T: 0, V: 3},
		{Component: "b", Metric: "n", T: 500, V: 4},
	}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := DatasetFromDB(store, "app", 500, 0, 1000); err != nil {
		t.Fatal(err)
	}
	if store.matchCalls != 1 || store.matchRanges[0] != [2]int64{0, 1000} {
		t.Fatalf("want 1 matcher scan over the window, got %d over %v", store.matchCalls, store.matchRanges)
	}
}

// countingStore records the matcher scans a store serves.
type countingStore struct {
	*tsdb.Sharded
	matchCalls int
	// matchRanges records each scan's [from, to).
	matchRanges [][2]int64
}

func (c *countingStore) ScanMatch(componentGlob, metricGlob string, from, to int64, begin func(keys []string), visit tsdb.SeriesVisitor) error {
	c.matchCalls++
	c.matchRanges = append(c.matchRanges, [2]int64{from, to})
	return c.Sharded.ScanMatch(componentGlob, metricGlob, from, to, begin, visit)
}

// writeWindowFixture ingests a deterministic multi-series stream into
// the store, in time order, covering [0, upToMS): dense and sparse
// series (sparse buckets exercise the spline gap fill), a series born
// mid-stream, one that dies, and an occasional NaN sample (skipped by
// resampling).
func writeWindowFixture(t *testing.T, db *tsdb.Sharded, fromMS, upToMS int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var samples []tsdb.Sample
	for ts := fromMS; ts < upToMS; ts += 250 {
		f := float64(ts)
		samples = append(samples,
			tsdb.Sample{Component: "web", Metric: "req_rate", T: ts, V: 100 + 40*math.Sin(f/3000) + rng.Float64()},
			tsdb.Sample{Component: "db", Metric: "queries", T: ts, V: 60 + 25*math.Sin((f-500)/3000) + rng.Float64()},
		)
		if ts%1500 == 0 { // sparse: known buckets with gaps in between
			samples = append(samples, tsdb.Sample{Component: "web", Metric: "gc_pause", T: ts, V: 5 + rng.Float64()*3})
		}
		if ts >= 30000 { // born mid-stream
			samples = append(samples, tsdb.Sample{Component: "web", Metric: "late_metric", T: ts, V: f / 1000})
		}
		if ts < 15000 { // dies: rolls out of later windows entirely
			samples = append(samples, tsdb.Sample{Component: "db", Metric: "warmup", T: ts, V: 1 + f/500})
		}
		if ts%10000 == 0 { // NaN observations are skipped by Resample
			samples = append(samples, tsdb.Sample{Component: "web", Metric: "req_rate", T: ts, V: math.NaN()})
		}
	}
	if err := db.WriteSamples(samples, 0); err != nil {
		t.Fatal(err)
	}
}

// assertDatasetEqual requires bit-identical datasets (float comparisons
// included: streaming assembly promises the same bytes as the reference).
func assertDatasetEqual(t *testing.T, got, want *Dataset, label string) {
	t.Helper()
	if got.Start != want.Start || got.End != want.End || got.StepMS != want.StepMS || got.App != want.App {
		t.Fatalf("%s: dataset header mismatch: got [%d,%d) step %d app %q, want [%d,%d) step %d app %q",
			label, got.Start, got.End, got.StepMS, got.App, want.Start, want.End, want.StepMS, want.App)
	}
	if !reflect.DeepEqual(got.Components(), want.Components()) {
		t.Fatalf("%s: components %v, want %v", label, got.Components(), want.Components())
	}
	for _, comp := range want.Components() {
		if !reflect.DeepEqual(got.MetricNames(comp), want.MetricNames(comp)) {
			t.Fatalf("%s: %s metrics %v, want %v", label, comp, got.MetricNames(comp), want.MetricNames(comp))
		}
		for _, m := range want.MetricNames(comp) {
			g, w := got.Get(comp, m), want.Get(comp, m)
			if g.Start != w.Start || g.StepMS != w.StepMS || len(g.Values) != len(w.Values) {
				t.Fatalf("%s: %s/%s grid mismatch", label, comp, m)
			}
			for i := range w.Values {
				if math.Float64bits(g.Values[i]) != math.Float64bits(w.Values[i]) {
					t.Fatalf("%s: %s/%s value[%d] = %v, want %v (not bit-identical)",
						label, comp, m, i, g.Values[i], w.Values[i])
				}
			}
		}
	}
}

// TestWindowCacheMatchesBatchAssembly slides a window over an evolving
// store and requires every dataset DatasetFromDB — and WindowCache.Advance,
// which is DatasetFromDB — assembles to be bit-identical to the
// materializing reference (refDataset: one raw query, Resample per
// series) over the same window: across slides, series births and
// deaths, spline-filled gaps, off-grid slides and width changes.
func TestWindowCacheMatchesBatchAssembly(t *testing.T) {
	db := tsdb.NewSharded(1)
	cache := NewWindowCache("test", 500)

	windows := []struct {
		upTo       int64 // ingest frontier before the assembly
		start, end int64
	}{
		{upTo: 20000, start: 0, end: 20000},
		{upTo: 26000, start: 6000, end: 26000},  // slide by 12 buckets
		{upTo: 26500, start: 6500, end: 26500},  // slide by 1 bucket
		{upTo: 26500, start: 6500, end: 26500},  // unchanged
		{upTo: 36000, start: 16000, end: 36000}, // births (late_metric) + deaths (warmup)
		{upTo: 36000, start: 16250, end: 36250}, // off-grid slide
		{upTo: 40000, start: 16000, end: 40000}, // width change
		{upTo: 80000, start: 60000, end: 80000}, // no overlap with the last window
	}
	frontier := int64(0)
	for i, w := range windows {
		if w.upTo > frontier {
			writeWindowFixture(t, db, frontier, w.upTo)
			frontier = w.upTo
		}
		want := refDataset(t, db, "test", 500, w.start, w.end)
		ds, err := DatasetFromDB(db, "test", 500, w.start, w.end)
		if err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		assertDatasetEqual(t, ds, want, fmt.Sprintf("window %d", i))
		ds, _, err = cache.Advance(db, w.start, w.end)
		if err != nil {
			t.Fatalf("window %d: Advance: %v", i, err)
		}
		assertDatasetEqual(t, ds, want, fmt.Sprintf("window %d (Advance)", i))
	}
}
