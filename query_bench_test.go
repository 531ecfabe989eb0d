package sieve

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// Query-engine benchmark fixtures: 32 series x 8192 points, written once
// per store kind. "hot" keeps everything in sealed in-memory chunks;
// "cold" checkpoints into block files, closes, and reopens, so every
// read goes through the on-disk chunk index.
const (
	qbComps        = 8
	qbMets         = 4
	qbPointsPerSer = 8192
	qbStepGenMS    = 250
	qbSpanMS       = int64(qbPointsPerSer) * qbStepGenMS
	qbTotalPoints  = qbComps * qbMets * qbPointsPerSer
)

func qbSamples() []tsdb.Sample {
	out := make([]tsdb.Sample, 0, qbTotalPoints)
	for i := 0; i < qbPointsPerSer; i++ {
		for c := 0; c < qbComps; c++ {
			for m := 0; m < qbMets; m++ {
				out = append(out, tsdb.Sample{
					Component: fmt.Sprintf("comp-%02d", c),
					Metric:    fmt.Sprintf("metric_%d", m),
					T:         int64(i) * qbStepGenMS,
					V:         float64(i%997)*0.5 + float64(c) - float64(m)*0.25,
				})
			}
		}
	}
	return out
}

var qbFixtures struct {
	sync.Mutex
	hot     *tsdb.Sharded
	cold    *tsdb.Sharded
	coldDir string
}

// qbStore returns the shared hot or cold store, building it on first use
// (block building is expensive; benchmarks must not pay it per run).
func qbStore(b *testing.B, cold bool) *tsdb.Sharded {
	qbFixtures.Lock()
	defer qbFixtures.Unlock()
	if !cold {
		if qbFixtures.hot == nil {
			s := tsdb.NewSharded(4)
			if err := s.WriteSamples(qbSamples(), 0); err != nil {
				b.Fatal(err)
			}
			s.Flush()
			qbFixtures.hot = s
		}
		return qbFixtures.hot
	}
	if qbFixtures.cold == nil {
		dir, err := os.MkdirTemp("", "sieve-qbench-*")
		if err != nil {
			b.Fatal(err)
		}
		s, err := tsdb.OpenSharded(4, tsdb.DurabilityOptions{Dir: dir, FlushInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.WriteSamples(qbSamples(), 0); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil { // final checkpoint: everything into blocks
			b.Fatal(err)
		}
		s, err = tsdb.OpenSharded(4, tsdb.DurabilityOptions{Dir: dir, FlushInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		qbFixtures.cold = s
		qbFixtures.coldDir = dir
	}
	return qbFixtures.cold
}

// queryRow is one BENCH_query.json entry.
type queryRow struct {
	Name         string  `json:"name"`
	Storage      string  `json:"storage"` // hot (memory chunks) or cold (block files)
	Agg          string  `json:"agg"`
	SeriesWidth  int     `json:"series_width"` // matched series per query
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	PointsPerSec float64 `json:"scanned_points_per_sec"`
}

var queryBench struct {
	sync.Mutex
	rows map[string]queryRow
}

// flushQueryJSON, under -benchjson, rewrites BENCH_query.json from the accumulated rows in
// fixed case order, tracking the read-path trajectory across PRs the way
// BENCH_ingest.json tracks the write path.
func flushQueryJSON(order []string) {
	if !*benchJSON {
		return
	}
	queryBench.Lock()
	defer queryBench.Unlock()
	var rows []queryRow
	for _, name := range order {
		if r, ok := queryBench.rows[name]; ok {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return
	}
	out := struct {
		Benchmark string `json:"benchmark"`
		benchHost
		TotalPoints int        `json:"dataset_points"`
		Series      int        `json:"dataset_series"`
		Results     []queryRow `json:"results"`
	}{
		Benchmark:   "BenchmarkQueryEngine",
		benchHost:   thisHost(),
		TotalPoints: qbTotalPoints,
		Series:      qbComps * qbMets,
		Results:     rows,
	}
	writeBenchJSON("BENCH_query.json", out)
}

// BenchmarkQueryEngine measures the read path: raw decode vs aggregation
// push-down, hot in-memory chunks vs cold block files, and matcher
// fan-out width. Every variant returns byte-identical results to the
// naive reference (pinned by the equivalence suite); only the work per
// answer changes. With -benchjson the rows land in BENCH_query.json.
func BenchmarkQueryEngine(b *testing.B) {
	type tc struct {
		name    string
		cold    bool
		q       tsdb.RangeQuery
		scanned int // points the query logically covers
	}
	oneSeries := qbPointsPerSer
	allSeries := qbTotalPoints
	// Two bucket widths: "fine" buckets (512 points) are no wider than an
	// in-memory sealed chunk, so every hot chunk straddles buckets and
	// aggregation decodes — the gain over raw is skipping the
	// materialize+sort (a cold block's 120-point chunks mostly fit). With
	// "coarse" buckets (4096 points) chunks lie wholly inside buckets and
	// order-independent aggregations are answered from the chunk index
	// alone: no file read, no CRC, no decode.
	fineStep := qbSpanMS / 16
	coarseStep := qbSpanMS / 2
	cases := []tc{
		{"raw/hot/1-series", false,
			tsdb.RangeQuery{Component: "comp-00", Metric: "metric_0", From: 0, To: qbSpanMS}, oneSeries},
		{"raw/cold/1-series", true,
			tsdb.RangeQuery{Component: "comp-00", Metric: "metric_0", From: 0, To: qbSpanMS}, oneSeries},
		{"agg-avg-fine/hot/1-series", false,
			tsdb.RangeQuery{Component: "comp-00", Metric: "metric_0", From: 0, To: qbSpanMS, Agg: tsdb.AggAvg, StepMS: fineStep}, oneSeries},
		{"agg-avg-fine/cold/1-series", true,
			tsdb.RangeQuery{Component: "comp-00", Metric: "metric_0", From: 0, To: qbSpanMS, Agg: tsdb.AggAvg, StepMS: fineStep}, oneSeries},
		{"agg-max-fine/cold/1-series", true,
			tsdb.RangeQuery{Component: "comp-00", Metric: "metric_0", From: 0, To: qbSpanMS, Agg: tsdb.AggMax, StepMS: fineStep}, oneSeries},
		{"agg-max-coarse/cold/1-series", true,
			tsdb.RangeQuery{Component: "comp-00", Metric: "metric_0", From: 0, To: qbSpanMS, Agg: tsdb.AggMax, StepMS: coarseStep}, oneSeries},
		{"raw/cold/32-series", true,
			tsdb.RangeQuery{Component: "*", Metric: "*", From: 0, To: qbSpanMS}, allSeries},
		{"agg-avg-fine/cold/32-series", true,
			tsdb.RangeQuery{Component: "*", Metric: "*", From: 0, To: qbSpanMS, Agg: tsdb.AggAvg, StepMS: fineStep}, allSeries},
		{"agg-max-coarse/cold/32-series", true,
			tsdb.RangeQuery{Component: "*", Metric: "*", From: 0, To: qbSpanMS, Agg: tsdb.AggMax, StepMS: coarseStep}, allSeries},
		{"agg-count-coarse/cold/32-series", true,
			tsdb.RangeQuery{Component: "*", Metric: "*", From: 0, To: qbSpanMS, Agg: tsdb.AggCount, StepMS: coarseStep}, allSeries},
		{"agg-rate-coarse/cold/32-series", true,
			tsdb.RangeQuery{Component: "*", Metric: "*", From: 0, To: qbSpanMS, Agg: tsdb.AggRate, StepMS: coarseStep}, allSeries},
		{"raw/cold/8-series", true,
			tsdb.RangeQuery{Component: "comp-0?", Metric: "metric_1", From: 0, To: qbSpanMS}, 8 * qbPointsPerSer},
	}
	order := make([]string, len(cases))
	for i, c := range cases {
		order[i] = c.name
	}

	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			store := qbStore(b, c.cold)
			ctx := context.Background()
			width, err := store.QueryRange(ctx, c.q)
			if err != nil || len(width) == 0 {
				b.Fatalf("warmup query: %d results, err %v", len(width), err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.QueryRange(ctx, c.q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			elapsed := b.Elapsed().Seconds()
			if elapsed <= 0 {
				return
			}
			storage := "hot"
			if c.cold {
				storage = "cold"
			}
			queryBench.Lock()
			if queryBench.rows == nil {
				queryBench.rows = map[string]queryRow{}
			}
			queryBench.rows[c.name] = queryRow{
				Name:         c.name,
				Storage:      storage,
				Agg:          c.q.Agg.String(),
				SeriesWidth:  len(width),
				NsPerOp:      elapsed * 1e9 / float64(b.N),
				AllocsPerOp:  int64(after.Mallocs-before.Mallocs) / int64(b.N),
				BytesPerOp:   int64(after.TotalAlloc-before.TotalAlloc) / int64(b.N),
				PointsPerSec: float64(c.scanned) * float64(b.N) / elapsed,
			}
			queryBench.Unlock()
		})
	}
	flushQueryJSON(order)
	// Tear the shared fixtures down: benchmarks have no package-level
	// cleanup hook, and the cold store's block directory must not pile up
	// in the system temp dir run after run. A -count=N rerun rebuilds.
	qbFixtures.Lock()
	if qbFixtures.cold != nil {
		_ = qbFixtures.cold.Close()
		_ = os.RemoveAll(qbFixtures.coldDir)
		qbFixtures.cold, qbFixtures.coldDir = nil, ""
	}
	qbFixtures.hot = nil
	qbFixtures.Unlock()
}
