package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sieve-microservices/sieve/internal/tsdb"
)

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
// included: the incremental path promises the same bytes as batch).
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

// TestWindowCacheMatchesBatchAssembly slides a cache over an evolving
// store and requires every assembled dataset to be bit-identical to the
// materializing reference (refDataset: one raw query, Resample per
// series) over the same window — across rolls, series births and
// deaths, spline-filled gaps, and full-rebuild fallbacks.
func TestWindowCacheMatchesBatchAssembly(t *testing.T) {
	db := tsdb.NewSharded(1)
	cache := NewWindowCache("test", 500)

	windows := []struct {
		upTo       int64 // ingest frontier before the advance
		start, end int64
		rebuild    bool
		tail       int
	}{
		{upTo: 20000, start: 0, end: 20000, rebuild: true},              // first cycle
		{upTo: 26000, start: 6000, end: 26000, tail: 1},                 // slide by 12 buckets
		{upTo: 26500, start: 6500, end: 26500, tail: 1},                 // slide by 1 bucket
		{upTo: 26500, start: 6500, end: 26500},                          // unchanged: zero queries
		{upTo: 36000, start: 16000, end: 36000, tail: 1},                // births (late_metric) + deaths (warmup)
		{upTo: 36000, start: 16250, end: 36250, rebuild: true},          // off-grid slide falls back
		{upTo: 40000, start: 16000, end: 40000, rebuild: true},          // width change falls back
		{upTo: 80000, start: 60000, end: 80000, rebuild: true, tail: 0}, // slid past the whole overlap
	}
	frontier := int64(0)
	for i, w := range windows {
		if w.upTo > frontier {
			writeWindowFixture(t, db, frontier, w.upTo)
			frontier = w.upTo
		}
		ds, st, err := cache.Advance(db, w.start, w.end)
		if err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		if st.FullRebuild != w.rebuild {
			t.Fatalf("window %d: FullRebuild = %v (%s), want %v", i, st.FullRebuild, st.RebuildReason, w.rebuild)
		}
		if !w.rebuild && st.TailQueries != w.tail {
			t.Fatalf("window %d: TailQueries = %d, want %d", i, st.TailQueries, w.tail)
		}
		want := refDataset(t, db, "test", 500, w.start, w.end)
		assertDatasetEqual(t, ds, want, fmt.Sprintf("window %d", i))
	}
}

// TestWindowCacheQueryCounts pins the work a warm advance is allowed to
// do: exactly one matcher scan covering only the new tail, never the
// full window; an unchanged window touches the store not at all.
func TestWindowCacheQueryCounts(t *testing.T) {
	inner := tsdb.NewSharded(1)
	writeWindowFixture(t, inner, 0, 30000)
	db := &countingStore{Sharded: inner}
	cache := NewWindowCache("test", 500)

	if _, st, err := cache.Advance(db, 0, 20000); err != nil || !st.FullRebuild || st.RebuildReason != "first cycle" {
		t.Fatalf("first advance: err=%v stats=%+v, want a \"first cycle\" rebuild", err, st)
	}
	if db.matchCalls != 1 || db.matchRanges[0] != [2]int64{0, 20000} {
		t.Fatalf("cold cycle: %d matcher calls %v, want 1 over the window", db.matchCalls, db.matchRanges)
	}

	db.matchCalls, db.matchRanges = 0, nil
	_, st, err := cache.Advance(db, 10000, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if st.FullRebuild || st.TailQueries != 1 || st.FullQueries != 0 {
		t.Fatalf("warm cycle stats: %+v, want incremental with exactly one tail query", st)
	}
	if db.matchCalls != 1 {
		t.Fatalf("warm cycle issued %d matcher queries, want exactly 1", db.matchCalls)
	}
	if got, want := db.matchRanges[0], [2]int64{20000, 30000}; got != want {
		t.Fatalf("warm cycle queried %v, want only the tail %v", got, want)
	}

	// Unchanged window: zero store traffic.
	db.matchCalls, db.matchRanges = 0, nil
	if _, st, err = cache.Advance(db, 10000, 30000); err != nil || st.TailQueries+st.FullQueries != 0 || db.matchCalls != 0 {
		t.Fatalf("no-op cycle: err=%v stats=%+v calls=%d, want zero queries", err, st, db.matchCalls)
	}

	// Invalidate forces the full path again, and says why.
	cache.Invalidate()
	db.matchCalls, db.matchRanges = 0, nil
	if _, st, err = cache.Advance(db, 10000, 30000); err != nil || !st.FullRebuild || st.RebuildReason != "invalidated" || db.matchCalls != 1 {
		t.Fatalf("post-invalidate: err=%v stats=%+v calls=%d, want one \"invalidated\" full rebuild", err, st, db.matchCalls)
	}
}

// TestWindowCacheLateWriteRepairedByInvalidate documents the engine's
// one blind spot and its remedy: a write landing behind the cached end
// is invisible to tail queries — the cache alone cannot see it — and the
// store's low-water mark, taken before each Advance as the online driver
// does, tells the owner to Invalidate, which restores equality with the
// reference.
func TestWindowCacheLateWriteRepairedByInvalidate(t *testing.T) {
	db := tsdb.NewSharded(1)
	writeWindowFixture(t, db, 0, 22000)
	cache := NewWindowCache("test", 500)
	db.TakeLowWater()
	if _, _, err := cache.Advance(db, 0, 20000); err != nil {
		t.Fatal(err)
	}

	// Late write: lands inside the already-cached region.
	if err := db.WriteSamples([]tsdb.Sample{{Component: "web", Metric: "req_rate", T: 12345, V: 9999}}, 0); err != nil {
		t.Fatal(err)
	}
	ds, _, err := cache.Advance(db, 2000, 22000)
	if err != nil {
		t.Fatal(err)
	}
	want := refDataset(t, db, "test", 500, 2000, 22000)
	lateBucket := (12345 - 2000) / 500
	if math.Float64bits(ds.Get("web", "req_rate").Values[lateBucket]) == math.Float64bits(want.Get("web", "req_rate").Values[lateBucket]) {
		t.Fatal("late write should be invisible to the incremental path (the documented blind spot); equal values mean this test lost its subject")
	}

	if _, cachedEnd := cache.Window(); db.TakeLowWater() >= cachedEnd {
		t.Fatal("the store's low-water mark did not report the write behind the cached end")
	}
	cache.Invalidate()
	ds, st, err := cache.Advance(db, 2000, 22000)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullRebuild {
		t.Fatalf("post-invalidate advance did not rebuild: %+v", st)
	}
	assertDatasetEqual(t, ds, want, "after repair")
}

// TestWindowCacheSurvivesFailedCycle: a later pipeline stage failing
// after assembly abandons the run but not the cache — the next advance
// rolls from the already-advanced state and still matches the
// reference.
func TestWindowCacheSurvivesFailedCycle(t *testing.T) {
	db := tsdb.NewSharded(1)
	writeWindowFixture(t, db, 0, 26000)
	cache := NewWindowCache("test", 500)
	if _, _, err := cache.Advance(db, 0, 20000); err != nil {
		t.Fatal(err)
	}
	ds, st, err := cache.Advance(db, 6000, 26000)
	if err != nil {
		t.Fatal(err)
	}
	if st.FullRebuild {
		t.Fatalf("advance after abandoned cycle rebuilt: %+v", st)
	}
	want := refDataset(t, db, "test", 500, 6000, 26000)
	assertDatasetEqual(t, ds, want, "after failed cycle")
}
