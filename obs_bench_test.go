package sieve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/sieve-microservices/sieve/internal/telemetry"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// obsRow is one BENCH_obs.json entry.
type obsRow struct {
	Name        string   `json:"name"`
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

var obsBench struct {
	sync.Mutex
	rows map[string]obsRow
}

func putObsRow(r obsRow) {
	obsBench.Lock()
	defer obsBench.Unlock()
	if obsBench.rows == nil {
		obsBench.rows = map[string]obsRow{}
	}
	obsBench.rows[r.Name] = r
}

// flushObsJSON, under -benchjson, rewrites BENCH_obs.json from the accumulated rows, in
// fixed case order.
func flushObsJSON(order []string) {
	if !*benchJSON {
		return
	}
	obsBench.Lock()
	defer obsBench.Unlock()
	var rows []obsRow
	for _, name := range order {
		if r, ok := obsBench.rows[name]; ok {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return
	}
	out := struct {
		Benchmark string `json:"benchmark"`
		benchHost
		Results []obsRow `json:"results"`
	}{
		Benchmark: "BenchmarkTelemetry",
		benchHost: thisHost(),
		Results:   rows,
	}
	writeBenchJSON("BENCH_obs.json", out)
}

// obsSealedStore builds a sealed 32-series store for the query row:
// enough points per series that QueryRange walks real chunks.
func obsSealedStore(b *testing.B) *tsdb.Sharded {
	b.Helper()
	s := tsdb.NewSharded(4)
	samples := make([]tsdb.Sample, 0, 2048)
	for c := 0; c < 8; c++ {
		for m := 0; m < 4; m++ {
			samples = samples[:0]
			for p := 0; p < 2048; p++ {
				samples = append(samples, tsdb.Sample{
					Component: fmt.Sprintf("comp-%d", c),
					Metric:    fmt.Sprintf("metric_%d", m),
					T:         int64(p) * 500,
					V:         float64((p*7+c*3+m)%17) + 0.25*float64(m),
				})
			}
			if err := s.WriteSamples(samples, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	s.Flush()
	return s
}

// BenchmarkTelemetry measures the self-observability layer: raw
// instrument update costs (the 0 allocs/op contract — also pinned
// hard by allocation tests in internal/telemetry), the fast-path span,
// and the always-on cost of WAL-backed ingest and chunk-counted query
// reads. With -benchjson the rows are written to BENCH_obs.json.
//
// The ingest and query rows continue the old ingest-telemetry and
// query-telemetry rows. Their uninstrumented halves (ingest-base,
// query-base) have no store left to run on: the off state was deleted
// when its last measurement put the instruments at +0.88 % on ingest
// (110.6 vs 111.6 us/op) and inside the noise on query (-7.8 %).
func BenchmarkTelemetry(b *testing.B) {
	order := []string{
		"counter-inc", "histogram-observe", "span-fast-path",
		"ingest", "query",
	}

	reg := telemetry.NewRegistry()
	counter := reg.Counter("bench_counter_total", "bench")
	hist := reg.Histogram("bench_seconds", "bench", nil)
	ring := telemetry.NewTraceRing(8, time.Hour, nil) // nothing is ever slow
	op := ring.Op("bench")

	instRow := func(name string, fn func()) func(b *testing.B) {
		return func(b *testing.B) {
			allocs := testing.AllocsPerRun(1000, fn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn()
			}
			b.StopTimer()
			ns := b.Elapsed().Seconds() * 1e9 / float64(b.N)
			putObsRow(obsRow{Name: name, NsPerOp: ns, AllocsPerOp: &allocs})
		}
	}
	b.Run("counter-inc", instRow("counter-inc", func() { counter.Inc() }))
	b.Run("histogram-observe", instRow("histogram-observe", func() { hist.Observe(0.0042) }))
	b.Run("span-fast-path", instRow("span-fast-path", func() {
		sp := op.Start()
		sp.FieldInt("n", 7)
		sp.End()
	}))

	// Ingest: a WAL-backed store, where the append/fsync histograms fire.
	payloads := ingestPayloads()
	b.Run("ingest", func(b *testing.B) {
		s, err := tsdb.OpenSharded(4, tsdb.DurabilityOptions{
			Dir:           b.TempDir(),
			Fsync:         tsdb.FsyncInterval,
			FlushInterval: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Write(payloads[i%len(payloads)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		putObsRow(obsRow{Name: "ingest", NsPerOp: b.Elapsed().Seconds() * 1e9 / float64(b.N)})
	})

	// Query: a sealed store read with chunk-fate counting.
	queries := []tsdb.RangeQuery{
		{Component: "*", Metric: "*", From: 0, To: 1 << 40},
		{Component: "comp-*", Metric: "*", From: 0, To: 1 << 40, Agg: tsdb.AggMax, StepMS: 60000},
		{Component: "comp-3", Metric: "metric_1", From: 100000, To: 400000},
	}
	b.Run("query", func(b *testing.B) {
		s := obsSealedStore(b)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.QueryRange(ctx, queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		putObsRow(obsRow{Name: "query", NsPerOp: b.Elapsed().Seconds() * 1e9 / float64(b.N)})
	})

	flushObsJSON(order)
}
