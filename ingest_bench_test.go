package sieve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sieve-microservices/sieve/internal/promremote"
	"github.com/sieve-microservices/sieve/internal/snappy"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// ingestPointsPerBatch is the size of one pre-encoded write batch:
// 16 components x 8 metrics, about the shape of one collector scrape.
const ingestPointsPerBatch = 16 * 8

// ingestPayloads pre-encodes 256 line-protocol batches spread over 32
// component namespaces (4096 distinct series), so concurrent writers hit
// different shards instead of convoying on one series.
func ingestPayloads() [][]byte {
	const batches, comps, mets = 256, 16, 8
	payloads := make([][]byte, batches)
	samples := make([]tsdb.Sample, 0, comps*mets)
	for i := range payloads {
		samples = samples[:0]
		for c := 0; c < comps; c++ {
			for m := 0; m < mets; m++ {
				samples = append(samples, tsdb.Sample{
					Component: fmt.Sprintf("comp-%03d-%02d", i%32, c),
					Metric:    fmt.Sprintf("metric_%02d", m),
					T:         int64(i) * 500,
					V:         float64(i*c) + float64(m)*0.25,
				})
			}
		}
		payloads[i] = tsdb.EncodeLineProtocol(samples)
	}
	return payloads
}

// ingestRow is one BENCH_ingest.json entry.
type ingestRow struct {
	Name        string `json:"name"`
	Shards      int    `json:"shards"`
	PointsPerOp int    `json:"points_per_op"`
	// Writers is the concurrent-writer count of a RunParallel row (0 =
	// the default GOMAXPROCS-driven parallelism of the older rows).
	Writers      int     `json:"writers,omitempty"`
	NsPerOp      float64 `json:"ns_per_op"`
	PointsPerSec float64 `json:"points_per_sec"`
	// WALBytesPerSample is the on-disk WAL cost per stored sample of a
	// durable row (0 for in-memory rows) — the v2 dictionary encoding's
	// self-certifying size column.
	WALBytesPerSample float64 `json:"wal_bytes_per_sample,omitempty"`
}

var ingestBench struct {
	sync.Mutex
	rows  map[string]ingestRow
	order []string
}

// recordIngestRow accumulates one result row in first-recorded order, so
// BenchmarkShardedIngest and BenchmarkRemoteWriteIngest land in the same
// BENCH_ingest.json regardless of which runs (the other's rows are
// simply absent).
func recordIngestRow(r ingestRow) {
	ingestBench.Lock()
	defer ingestBench.Unlock()
	if ingestBench.rows == nil {
		ingestBench.rows = map[string]ingestRow{}
	}
	if _, ok := ingestBench.rows[r.Name]; !ok {
		ingestBench.order = append(ingestBench.order, r.Name)
	}
	ingestBench.rows[r.Name] = r
}

// flushIngestJSON, under -benchjson, rewrites BENCH_ingest.json from the accumulated rows
// so the ingestion-throughput trajectory is tracked across PRs.
func flushIngestJSON() {
	if !*benchJSON {
		return
	}
	ingestBench.Lock()
	defer ingestBench.Unlock()
	var rows []ingestRow
	for _, name := range ingestBench.order {
		rows = append(rows, ingestBench.rows[name])
	}
	if len(rows) == 0 {
		return
	}
	out := struct {
		Benchmark string `json:"benchmark"`
		benchHost
		Results []ingestRow `json:"results"`
	}{
		Benchmark: "BenchmarkShardedIngest+BenchmarkRemoteWriteIngest",
		benchHost: thisHost(),
		Results:   rows,
	}
	writeBenchJSON("BENCH_ingest.json", out)
}

// BenchmarkShardedIngest compares concurrent line-protocol write
// throughput of the store at increasing shard counts; shards=1 (one
// lock) is the baseline the other rows' ratios are taken against. Every
// variant stores identical points (pinned by
// TestShardedMatchesDBAtAnyShardCount in internal/tsdb); only lock
// contention changes. With -benchjson the rows are also written to
// BENCH_ingest.json.
func BenchmarkShardedIngest(b *testing.B) {
	payloads := ingestPayloads()
	type tc struct {
		name    string
		shards  int
		durable bool // WAL-enabled store (tracks the durability overhead)
		fsync   tsdb.FsyncPolicy
		// writers: 0 = RunParallel at default parallelism (the legacy
		// rows), 1 = a strictly serial loop, n>1 = RunParallel with n
		// concurrent writer goroutines regardless of GOMAXPROCS.
		writers int
	}
	cases := []tc{{name: "shards=1", shards: 1}, {name: "shards=2", shards: 2}, {name: "shards=4", shards: 4}, {name: "shards=8", shards: 8}}
	if p := runtime.GOMAXPROCS(0); p > 8 {
		cases = append(cases, tc{name: fmt.Sprintf("shards=%d", p), shards: p})
	}
	// WAL-enabled variant at the same shard count as the in-memory
	// shards=4 row: the delta between the two is the WAL's ingest cost
	// (encode + CRC + buffered write; fsync rides the background ticker).
	cases = append(cases, tc{name: "shards=4+wal", shards: 4, durable: true})
	// FsyncAlways rows: writers=1 is the serial-fsync baseline (every
	// append pays its own fsync — the pre-group-commit equivalent);
	// writers=4/8 is where the leader/follower queue coalesces waiters
	// into shared fsyncs, which is invisible to a sequential bench.
	cases = append(cases,
		tc{name: "shards=4+wal-always/writers=1", shards: 4, durable: true, fsync: tsdb.FsyncAlways, writers: 1},
		tc{name: "shards=4+wal-always/writers=4", shards: 4, durable: true, fsync: tsdb.FsyncAlways, writers: 4},
		tc{name: "shards=4+wal-always/writers=8", shards: 4, durable: true, fsync: tsdb.FsyncAlways, writers: 8},
	)

	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var store *tsdb.Sharded
			if c.durable {
				var err error
				store, err = tsdb.OpenSharded(c.shards, tsdb.DurabilityOptions{
					Dir:           b.TempDir(),
					Fsync:         c.fsync,
					FlushInterval: -1, // measure the WAL alone, not block flushes
				})
				if err != nil {
					b.Fatal(err)
				}
				defer store.Close()
			} else {
				store = tsdb.NewSharded(c.shards)
			}
			var idx atomic.Int64
			writeNext := func() bool {
				p := payloads[int(idx.Add(1))%len(payloads)]
				if _, err := store.Write(p); err != nil {
					b.Error(err)
					return false
				}
				return true
			}
			b.ReportAllocs()
			if c.writers > 1 {
				b.SetParallelism((c.writers + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
			}
			b.ResetTimer()
			if c.writers == 1 {
				for i := 0; i < b.N; i++ {
					if !writeNext() {
						return
					}
				}
			} else {
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if !writeNext() {
							return
						}
					}
				})
			}
			b.StopTimer()
			var walBytesPerSample float64
			if c.durable && b.N > 0 {
				walBytesPerSample = float64(store.Stats().WALBytes) / (float64(b.N) * ingestPointsPerBatch)
			}
			if c.fsync == tsdb.FsyncAlways && b.N >= 200 {
				// The group-commit telemetry must move under FsyncAlways
				// load: every leader sync observes its cohort size. Gated
				// on b.N so the CI -benchtime 1x smoke run stays a pure
				// compile check. Saved fsyncs are reported, not asserted:
				// whether waiters pile up behind an in-flight fsync here
				// depends on the host disk's fsync latency (a fast enough
				// disk drains each waiter before the next arrives), so the
				// coalescing arithmetic is pinned deterministically by
				// TestGroupCommitBatchedAppendsShareOneFsync instead.
				tel := store.Telemetry()
				if tel.WALGroupCommitBatches.Count() == 0 {
					b.Error("sieve_wal_group_commit_batches never observed a leader fsync")
				}
				b.Logf("group-commit leader fsyncs=%d fsyncs saved=%d",
					tel.WALGroupCommitBatches.Count(), tel.WALFsyncsSaved.Value())
			}
			elapsed := b.Elapsed().Seconds()
			if elapsed <= 0 {
				return
			}
			pps := float64(ingestPointsPerBatch) * float64(b.N) / elapsed
			b.ReportMetric(pps, "points/s")
			recordIngestRow(ingestRow{
				Name:              c.name,
				Shards:            c.shards,
				PointsPerOp:       ingestPointsPerBatch,
				Writers:           c.writers,
				NsPerOp:           b.Elapsed().Seconds() * 1e9 / float64(b.N),
				PointsPerSec:      pps,
				WALBytesPerSample: walBytesPerSample,
			})
		})
	}
	flushIngestJSON()
}

// remotePayloads renders the exact batches of ingestPayloads as
// snappy-compressed remote-write bodies: one TimeSeries per series,
// labeled {__name__: metric, job: component}, as Client.WriteRemote and
// any real Prometheus sender would put them on the wire.
func remotePayloads() [][]byte {
	payloads := ingestPayloads()
	bodies := make([][]byte, len(payloads))
	for i, p := range payloads {
		samples, err := tsdb.ParseLineProtocol(p)
		if err != nil {
			panic(err)
		}
		var req promremote.WriteRequest
		index := map[string]int{}
		for _, s := range samples {
			key := s.Key()
			j, ok := index[key]
			if !ok {
				j = len(req.TimeSeries)
				index[key] = j
				req.TimeSeries = append(req.TimeSeries, promremote.TimeSeries{
					Labels: []promremote.Label{
						{Name: promremote.MetricNameLabel, Value: s.Metric},
						{Name: "job", Value: s.Component},
					},
				})
			}
			req.TimeSeries[j].Samples = append(req.TimeSeries[j].Samples,
				promremote.Sample{Value: s.V, TimestampMS: s.T})
		}
		bodies[i] = snappy.Encode(promremote.Marshal(&req))
	}
	return bodies
}

// BenchmarkRemoteWriteIngest measures the full remote-write receive
// path — snappy decode, protobuf unmarshal, label mapping, and the same
// IngestParsed call /write ends in — over pre-encoded wire bodies
// carrying the identical points as BenchmarkShardedIngest, so the two
// families of BENCH_ingest.json rows are directly comparable per
// sample. Target: at most ~1.5x the line-protocol cost per sample.
func BenchmarkRemoteWriteIngest(b *testing.B) {
	bodies := remotePayloads()
	for _, shards := range []int{1, 4} {
		name := fmt.Sprintf("remote-write/shards=%d", shards)
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			store := tsdb.NewSharded(shards)
			var idx atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					body := bodies[int(idx.Add(1))%len(bodies)]
					start := time.Now()
					plain, err := snappy.Decode(body)
					if err != nil {
						b.Error(err)
						return
					}
					req, err := promremote.Unmarshal(plain)
					if err != nil {
						b.Error(err)
						return
					}
					samples := make([]tsdb.Sample, 0, req.SampleCount())
					for i := range req.TimeSeries {
						ts := &req.TimeSeries[i]
						component, metric, err := promremote.MapSeries(ts.Labels, "job")
						if err != nil {
							b.Error(err)
							return
						}
						for _, smp := range ts.Samples {
							samples = append(samples, tsdb.Sample{
								Component: component, Metric: metric,
								T: smp.TimestampMS, V: smp.Value,
							})
						}
					}
					if _, err := store.IngestParsed(samples, len(body), start); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			elapsed := b.Elapsed().Seconds()
			if elapsed <= 0 {
				return
			}
			pps := float64(ingestPointsPerBatch) * float64(b.N) / elapsed
			b.ReportMetric(pps, "points/s")
			recordIngestRow(ingestRow{
				Name:         name,
				Shards:       shards,
				PointsPerOp:  ingestPointsPerBatch,
				NsPerOp:      b.Elapsed().Seconds() * 1e9 / float64(b.N),
				PointsPerSec: pps,
			})
		})
	}
	flushIngestJSON()
}
