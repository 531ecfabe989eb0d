package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sieve-microservices/sieve/internal/timeseries"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// refDataset is the materializing reference for dataset assembly: one raw
// QueryRange over the window, then timeseries.Resample per series — what
// DatasetFromDB did before it streamed, and what the window cache's scan
// (which DatasetFromDB now is) must still equal bit for bit.
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
	// matchRanges records each scan's [from, to) so the window cache
	// tests can pin tail-only reads.
	matchRanges [][2]int64
}

func (c *countingStore) ScanMatch(componentGlob, metricGlob string, from, to int64, begin func(keys []string), visit tsdb.SeriesVisitor) error {
	c.matchCalls++
	c.matchRanges = append(c.matchRanges, [2]int64{from, to})
	return c.Sharded.ScanMatch(componentGlob, metricGlob, from, to, begin, visit)
}
