package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// assertDatasetEqual requires bit-identical datasets, float comparisons
// included.
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
			if g.Name != w.Name || g.Start != w.Start || g.StepMS != w.StepMS || len(g.Values) != len(w.Values) {
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

// requireValue requires one grid value to carry exactly want's bits.
func requireValue(t *testing.T, ds *Dataset, comp, metric string, i int, want float64, label string) {
	t.Helper()
	reg := ds.Get(comp, metric)
	if reg == nil || i >= len(reg.Values) {
		t.Fatalf("%s: %s/%s has no value %d", label, comp, metric, i)
	}
	if got := reg.Values[i]; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %s/%s value[%d] = %v, want %v", label, comp, metric, i, got, want)
	}
}

// mustDataset assembles [start, end) or fails the test.
func mustDataset(t *testing.T, db tsdb.ReadStore, appName string, stepMS, start, end int64) *Dataset {
	t.Helper()
	ds, err := DatasetFromDB(db, appName, stepMS, start, end)
	if err != nil {
		t.Fatalf("DatasetFromDB [%d, %d): %v", start, end, err)
	}
	return ds
}

// TestDatasetFromDBMatcherEquivalence assembles one window from a 1-shard
// and a 4-shard store holding the same samples, one per grid bucket: every
// grid value must be its bucket's sample, the out-of-window series must be
// skipped, and the two datasets — and their marshaled pipeline artifacts —
// must be bit-identical.
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
	// One series entirely outside the window: assembly must skip it.
	samples = append(samples, tsdb.Sample{Component: "svc-0", Metric: "late", T: 10_000_000, V: 1})

	const start, end, step = 0, 450_000, 500
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
	datasets := map[string]*Dataset{}
	for _, tc := range []struct {
		name   string
		shards int
	}{{"shards=1", 1}, {"sharded", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			store := tsdb.NewSharded(tc.shards)
			if err := store.WriteSamples(samples, 0); err != nil {
				t.Fatal(err)
			}
			ds := mustDataset(t, store, "app", step, start, end)
			if ds.Get("svc-0", "late") != nil {
				t.Fatal("out-of-window series must be skipped")
			}
			for _, s := range samples {
				if s.T < end {
					requireValue(t, ds, s.Component, s.Metric, int(s.T/step), s.V, tc.name)
				}
			}
			datasets[tc.name] = ds
		})
	}
	one, four := datasets["shards=1"], datasets["sharded"]
	if one == nil || four == nil {
		t.FailNow()
	}
	assertDatasetEqual(t, four, one, "4 shards vs 1")
	if !bytes.Equal(marshal(four), marshal(one)) {
		t.Fatal("marshaled artifacts differ between 1 and 4 shards")
	}
}

// TestDatasetFromDBUsesSingleMatcherQuery pins the store traffic of one
// assembly: exactly one raw QueryRange, over exactly the window, with
// globs "*"/"*".
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
	mustDataset(t, store, "app", 500, 0, 1000)
	want := []tsdb.RangeQuery{{Component: "*", Metric: "*", From: 0, To: 1000}}
	if !reflect.DeepEqual(store.queries, want) {
		t.Fatalf("store served %+v, want exactly %+v", store.queries, want)
	}
}

// countingStore records the queries a store serves.
type countingStore struct {
	*tsdb.Sharded
	queries []tsdb.RangeQuery
}

func (c *countingStore) QueryRange(ctx context.Context, q tsdb.RangeQuery) ([]tsdb.SeriesResult, error) {
	c.queries = append(c.queries, q)
	return c.Sharded.QueryRange(ctx, q)
}

// TestDatasetFromDBSkipsReservedComponent pins that self-telemetry never
// reaches analysis: series under tsdb.ReservedComponent, inside the
// window, leave the assembled dataset unchanged.
func TestDatasetFromDBSkipsReservedComponent(t *testing.T) {
	app := []tsdb.Sample{
		{Component: "web", Metric: "req", T: 0, V: 1},
		{Component: "web", Metric: "req", T: 500, V: 2},
	}
	plain, withSelf := tsdb.NewSharded(1), tsdb.NewSharded(1)
	if err := plain.WriteSamples(app, 0); err != nil {
		t.Fatal(err)
	}
	if err := withSelf.WriteSamples(append(app,
		tsdb.Sample{Component: tsdb.ReservedComponent, Metric: "tsdb_points", T: 0, V: 7},
		tsdb.Sample{Component: tsdb.ReservedComponent, Metric: "tsdb_points", T: 500, V: 9},
	), 0); err != nil {
		t.Fatal(err)
	}
	assertDatasetEqual(t, mustDataset(t, withSelf, "app", 500, 0, 1000), mustDataset(t, plain, "app", 500, 0, 1000), "with self-telemetry")
}

// writeWindowFixture ingests a deterministic multi-series stream into
// the store, in time order, covering [fromMS, upToMS): dense and sparse
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

// TestWindowCacheMatchesBatchAssembly slides a window over an evolving
// store — across slides, series births and deaths, spline-filled gaps,
// off-grid slides and width changes — and requires, per window, that
// WindowCache.Advance equals DatasetFromDB, that a 4-shard store fed the
// same stream assembles the same bits, and that two-point buckets of the
// deterministic series hold their hand-computed means.
func TestWindowCacheMatchesBatchAssembly(t *testing.T) {
	db, db4 := tsdb.NewSharded(1), tsdb.NewSharded(4)
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
			writeWindowFixture(t, db4, frontier, w.upTo)
			frontier = w.upTo
		}
		label := fmt.Sprintf("window %d", i)
		ds := mustDataset(t, db, "test", 500, w.start, w.end)
		adv, _, err := cache.Advance(db, w.start, w.end)
		if err != nil {
			t.Fatalf("%s: Advance: %v", label, err)
		}
		assertDatasetEqual(t, adv, ds, label+" (Advance)")
		assertDatasetEqual(t, mustDataset(t, db4, "test", 500, w.start, w.end), ds, label+" (4 shards)")

		// Bucket b holds the samples at bucketStart and bucketStart+250
		// that lie inside the window.
		for b := 0; w.start+int64(b)*500 < w.end; b++ {
			lo := w.start + int64(b)*500
			var warm, late []float64
			for ts := lo; ts < lo+500 && ts < w.end && ts < w.upTo; ts += 250 {
				if ts < 15000 {
					warm = append(warm, 1+float64(ts)/500)
				}
				if ts >= 30000 {
					late = append(late, float64(ts)/1000)
				}
			}
			if len(warm) == 2 {
				requireValue(t, ds, "db", "warmup", b, (warm[0]+warm[1])/2, label)
			}
			if len(late) == 2 {
				requireValue(t, ds, "web", "late_metric", b, (late[0]+late[1])/2, label)
			}
		}
	}
}

// scanEquivStore writes nine cosine series sampled every 50 ms — every
// 89th point NaN — into a store of the given shard count, then one late
// point behind the tail of svc0/metric0. A durable store checkpoints
// after the first half of the stream, so its window spans a block and
// shard memory; an in-memory one only flushes its write buffers.
func scanEquivStore(t *testing.T, shards, points int, durable bool) *tsdb.Sharded {
	t.Helper()
	db := tsdb.NewSharded(shards)
	if durable {
		var err error
		db, err = tsdb.OpenSharded(shards, tsdb.DurabilityOptions{Dir: t.TempDir(), Fsync: tsdb.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
	}
	write := func(from, to int) {
		t.Helper()
		var samples []tsdb.Sample
		for c := 0; c < 3; c++ {
			for m := 0; m < 3; m++ {
				for i := from; i < to; i++ {
					samples = append(samples, tsdb.Sample{
						Component: fmt.Sprintf("svc%d", c),
						Metric:    fmt.Sprintf("metric%d", m),
						T:         int64(i) * 50,
						V:         scanEquivValue(c, m, i),
					})
				}
			}
		}
		if err := db.WriteSamples(samples, 0); err != nil {
			t.Fatal(err)
		}
	}
	write(0, points/2)
	if durable {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	write(points/2, points)
	db.Flush()
	if err := db.WriteSamples([]tsdb.Sample{{Component: "svc0", Metric: "metric0", T: scanEquivLateT, V: scanEquivLateV}}, 0); err != nil {
		t.Fatal(err)
	}
	return db
}

// scanEquivLateT and scanEquivLateV are scanEquivStore's late point: it
// lands in the 500 ms bucket starting at 1000, between the samples at
// 1000 and 1050.
const scanEquivLateT, scanEquivLateV = 1025, 100.0

func scanEquivValue(c, m, i int) float64 {
	if i%89 == 0 {
		return math.NaN()
	}
	return math.Cos(float64(i)/7) * float64(c+m+1)
}

// scanEquivMean is the hand-computed grid value of series (c, m) over
// [lo, hi): its non-NaN samples, svc0/metric0's late point included,
// summed in time order and divided by their count.
func scanEquivMean(c, m int, lo, hi int64) float64 {
	sum, n := 0.0, 0
	for ts := lo; ts < hi; ts++ {
		if ts%50 == 0 {
			if v := scanEquivValue(c, m, int(ts/50)); !math.IsNaN(v) {
				sum += v
				n++
			}
		}
		if c == 0 && m == 0 && ts == scanEquivLateT {
			sum += scanEquivLateV
			n++
		}
	}
	return sum / float64(n)
}

// TestDatasetFromDBAgreesAcrossShards assembles the whole store and a
// narrower window slid forward step by step, on an off-grid end (a
// partial last bucket), from a 1-shard in-memory store and a 4-shard
// durable one whose data is half checkpointed: the datasets must be
// bit-identical, and every bucket — those holding a NaN sample or the
// late point and the partial last one included — must carry its
// hand-computed mean.
func TestDatasetFromDBAgreesAcrossShards(t *testing.T) {
	const stepMS, points = 500, 700
	one := scanEquivStore(t, 1, points, false)
	four := scanEquivStore(t, 4, points, true)
	windowEnd := int64(points) * 50
	width := windowEnd - 10*stepMS - 250 // off the grid: the last bucket is half full
	check := func(start, end int64) {
		t.Helper()
		label := fmt.Sprintf("[%d, %d)", start, end)
		ds := mustDataset(t, one, "app", stepMS, start, end)
		assertDatasetEqual(t, mustDataset(t, four, "app", stepMS, start, end), ds, label+" 4 shards vs 1")
		for c := 0; c < 3; c++ {
			for m := 0; m < 3; m++ {
				comp, name := fmt.Sprintf("svc%d", c), fmt.Sprintf("metric%d", m)
				for b := 0; start+int64(b)*stepMS < end; b++ {
					lo := start + int64(b)*stepMS
					requireValue(t, ds, comp, name, b, scanEquivMean(c, m, lo, min(lo+stepMS, end)), label)
				}
			}
		}
	}
	check(0, windowEnd)
	for slide := int64(0); slide <= 4; slide++ {
		s := slide * 2 * stepMS
		check(s, s+width)
	}
}

// TestDatasetFromDBAllocs pins DatasetFromDB at a per-point allocation
// count that does not grow: packing 8x the points into the SAME window on
// the SAME grid (denser sampling) must not change the assembly's
// allocation count beyond noise — every per-call allocation is per
// series or per grid bucket, never per decoded point.
func TestDatasetFromDBAllocs(t *testing.T) {
	const stepMS, windowMS = 500, 30_000
	build := func(density int) *tsdb.Sharded {
		db := tsdb.NewSharded(1)
		var samples []tsdb.Sample
		points := int(windowMS) / 50 * density
		for c := 0; c < 3; c++ {
			for m := 0; m < 3; m++ {
				for i := 0; i < points; i++ {
					samples = append(samples, tsdb.Sample{
						Component: fmt.Sprintf("svc%d", c),
						Metric:    fmt.Sprintf("metric%d", m),
						T:         int64(i) * 50 / int64(density),
						V:         math.Cos(float64(i) / 7),
					})
				}
			}
		}
		if err := db.WriteSamples(samples, 0); err != nil {
			t.Fatal(err)
		}
		db.Flush()
		return db
	}
	measure := func(db *tsdb.Sharded) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := DatasetFromDB(db, "app", stepMS, 0, windowMS); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1 := measure(build(1))
	a2 := measure(build(8))
	if a2 > a1+8 {
		t.Fatalf("assembly allocations grew with point count: %v -> %v allocs/op", a1, a2)
	}
}
