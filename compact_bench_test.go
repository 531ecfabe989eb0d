package sieve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// Compaction benchmark fixture: a month of 1m scrapes over 16 series,
// checkpointed into 120 small blocks — the shape a long-retention store
// grows into without a compactor. The same dataset is opened three ways:
// pristine (120 blocks), compacted (merged + 5m/1h companions), and a
// throwaway copy the merge benchmark compacts per iteration.
const (
	cbComps       = 4
	cbMets        = 4
	cbTickMS      = 60_000
	cbDays        = 30
	cbTicks       = cbDays * 24 * 60
	cbRounds      = 120
	cbSpanMS      = int64(cbTicks) * cbTickMS
	cbTotalPoints = cbComps * cbMets * cbTicks
)

func cbSamples() []tsdb.Sample {
	out := make([]tsdb.Sample, 0, cbTotalPoints)
	for i := 0; i < cbTicks; i++ {
		for c := 0; c < cbComps; c++ {
			for m := 0; m < cbMets; m++ {
				out = append(out, tsdb.Sample{
					Component: fmt.Sprintf("comp-%02d", c),
					Metric:    fmt.Sprintf("metric_%d", m),
					T:         int64(i) * cbTickMS,
					V:         float64((i*7+c*31+m*17)%1009) * 0.25,
				})
			}
		}
	}
	return out
}

func cbOpts(dir string) tsdb.DurabilityOptions {
	return tsdb.DurabilityOptions{
		Dir: dir, Fsync: tsdb.FsyncNever,
		FlushInterval: -1, CompactInterval: -1, Downsample: true,
	}
}

// cbBuild ingests the dataset as cbRounds checkpointed time slices, so
// the directory holds one small block per round, then closes the store:
// the fixture is a directory, reopened cold by each consumer.
func cbBuild(b *testing.B, dir string) {
	b.Helper()
	s, err := tsdb.OpenSharded(4, cbOpts(dir))
	if err != nil {
		b.Fatal(err)
	}
	samples := cbSamples()
	per := len(samples) / cbRounds
	for r := 0; r < cbRounds; r++ {
		if err := s.WriteSamples(samples[r*per:(r+1)*per], 0); err != nil {
			b.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

func cbCopyDir(b *testing.B, src, dst string) {
	b.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		s, d := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			cbCopyDir(b, s, d)
			continue
		}
		data, err := os.ReadFile(s)
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(d, data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

var cbFixtures struct {
	sync.Mutex
	root        string // parent temp dir
	pristineDir string // 120 small blocks, never compacted
	uncompacted *tsdb.Sharded
	compacted   *tsdb.Sharded
	blocksWere  int
	blocksNow   int
}

// cbStores builds the shared fixtures on first use and returns the
// (uncompacted, compacted) cold stores.
func cbStores(b *testing.B) (*tsdb.Sharded, *tsdb.Sharded) {
	cbFixtures.Lock()
	defer cbFixtures.Unlock()
	if cbFixtures.uncompacted != nil {
		return cbFixtures.uncompacted, cbFixtures.compacted
	}
	root, err := os.MkdirTemp("", "sieve-cbench-*")
	if err != nil {
		b.Fatal(err)
	}
	pristine := filepath.Join(root, "pristine")
	cbBuild(b, pristine)

	compactDir := filepath.Join(root, "compacted")
	cbCopyDir(b, pristine, compactDir)
	s, err := tsdb.OpenSharded(4, cbOpts(compactDir))
	if err != nil {
		b.Fatal(err)
	}
	before := s.BlockCount()
	if err := s.Compact(); err != nil {
		b.Fatal(err)
	}
	after := s.BlockCount()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}

	// Both stores reopen cold, so the compacted one pays the real
	// open-time cost of loading merged blocks and companion files.
	un, err := tsdb.OpenSharded(4, cbOpts(pristine))
	if err != nil {
		b.Fatal(err)
	}
	co, err := tsdb.OpenSharded(4, cbOpts(compactDir))
	if err != nil {
		b.Fatal(err)
	}
	cbFixtures.root = root
	cbFixtures.pristineDir = pristine
	cbFixtures.uncompacted, cbFixtures.compacted = un, co
	cbFixtures.blocksWere, cbFixtures.blocksNow = before, after
	return un, co
}

// compactRow is one BENCH_compact.json entry.
type compactRow struct {
	Name         string  `json:"name"`
	Store        string  `json:"store"` // uncompacted | compacted | merge | checkpoint
	NsPerOp      float64 `json:"ns_per_op"`
	PointsPerSec float64 `json:"points_per_sec,omitempty"` // merge / checkpoint throughput, logical query coverage
	// AllocPerPoint is the heap the timed call allocated (TotalAlloc
	// delta) per point it moved: the background passes' memory cost.
	AllocPerPoint float64 `json:"alloc_bytes_per_point,omitempty"`
	DsBucketsOp   int64   `json:"downsampled_buckets_per_op,omitempty"`
	SpeedupVsRaw  float64 `json:"speedup_vs_uncompacted,omitempty"`
}

var compactBench struct {
	sync.Mutex
	rows map[string]compactRow
}

func putCompactRow(r compactRow) {
	compactBench.Lock()
	if compactBench.rows == nil {
		compactBench.rows = map[string]compactRow{}
	}
	compactBench.rows[r.Name] = r
	compactBench.Unlock()
}

// flushCompactJSON, under -benchjson, rewrites BENCH_compact.json, computing each query
// variant's speedup against the uncompacted month-window baseline.
func flushCompactJSON(order []string, baseline string) {
	if !*benchJSON {
		return
	}
	compactBench.Lock()
	defer compactBench.Unlock()
	var rows []compactRow
	base := compactBench.rows[baseline].NsPerOp
	for _, name := range order {
		r, ok := compactBench.rows[name]
		if !ok {
			continue
		}
		if base > 0 && (r.Store == "uncompacted" || r.Store == "compacted") && name != baseline {
			r.SpeedupVsRaw = base / r.NsPerOp
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return
	}
	out := struct {
		Benchmark string `json:"benchmark"`
		benchHost
		TotalPoints  int          `json:"dataset_points"`
		Series       int          `json:"dataset_series"`
		SpanDays     int          `json:"dataset_span_days"`
		BlocksBefore int          `json:"blocks_on_disk_before"`
		BlocksAfter  int          `json:"blocks_on_disk_after"`
		Results      []compactRow `json:"results"`
	}{
		Benchmark:    "BenchmarkCompaction",
		benchHost:    thisHost(),
		TotalPoints:  cbTotalPoints,
		Series:       cbComps * cbMets,
		SpanDays:     cbDays,
		BlocksBefore: cbFixtures.blocksWere,
		BlocksAfter:  cbFixtures.blocksNow,
		Results:      rows,
	}
	writeBenchJSON("BENCH_compact.json", out)
}

// cbTotalAlloc reads the cumulative heap allocation counter; the
// write-pass rows difference it around their timed call.
func cbTotalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// Checkpoint row fixture: the dashboard preload's shape, one cut.
const (
	cbCkptSeries = 4096
	cbCkptTicks  = 240
)

// BenchmarkCompaction measures what the compactor buys on a
// long-retention store: the cost of a merge+downsample pass itself (and
// of one checkpoint, the other producer of blocks), and
// a cold month-window aggregate query answered three ways — decoding
// 120 small blocks, decoding the merged blocks (sum never uses
// summaries), and reading the 5m/1h downsampled companions. Blocks on
// disk before/after and per-variant speedups land in BENCH_compact.json.
func BenchmarkCompaction(b *testing.B) {
	b.Run("merge-pass", func(b *testing.B) {
		un, _ := cbStores(b)
		_ = un
		b.ReportAllocs()
		var allocated uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := filepath.Join(cbFixtures.root, fmt.Sprintf("merge-%d", i))
			cbCopyDir(b, cbFixtures.pristineDir, dir)
			s, err := tsdb.OpenSharded(4, cbOpts(dir))
			if err != nil {
				b.Fatal(err)
			}
			before := cbTotalAlloc()
			b.StartTimer()
			if err := s.Compact(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			allocated += cbTotalAlloc() - before
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			_ = os.RemoveAll(dir)
			b.StartTimer()
		}
		b.StopTimer()
		elapsed := b.Elapsed().Seconds()
		if elapsed > 0 {
			putCompactRow(compactRow{
				Name: "merge-pass", Store: "merge",
				NsPerOp:       elapsed * 1e9 / float64(b.N),
				PointsPerSec:  float64(cbTotalPoints) * float64(b.N) / elapsed,
				AllocPerPoint: float64(allocated) / (float64(cbTotalPoints) * float64(b.N)),
			})
		}
	})

	// One Checkpoint() sealing 4096 series x 240 points: the cut, the
	// decode of the stolen snapshot, the block write and the WAL pruning.
	b.Run("checkpoint-pass", func(b *testing.B) {
		root, err := os.MkdirTemp("", "sieve-cbench-ckpt-*")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(root)
		tick := make([]tsdb.Sample, cbCkptSeries)
		for i := range tick {
			tick[i].Component = fmt.Sprintf("comp-%02d", i%64)
			tick[i].Metric = fmt.Sprintf("metric_%d", i)
		}
		b.ReportAllocs()
		var allocated uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := filepath.Join(root, fmt.Sprintf("ckpt-%d", i))
			s, err := tsdb.OpenSharded(4, cbOpts(dir))
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < cbCkptTicks; k++ {
				for j := range tick {
					tick[j].T = int64(k) * 15_000
					tick[j].V = float64((k*7+j*31)%1009) * 0.25
				}
				if err := s.WriteSamples(tick, 0); err != nil {
					b.Fatal(err)
				}
			}
			before := cbTotalAlloc()
			b.StartTimer()
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			allocated += cbTotalAlloc() - before
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			_ = os.RemoveAll(dir)
			b.StartTimer()
		}
		b.StopTimer()
		const points = cbCkptSeries * cbCkptTicks
		elapsed := b.Elapsed().Seconds()
		if elapsed > 0 {
			putCompactRow(compactRow{
				Name: "checkpoint-pass", Store: "checkpoint",
				NsPerOp:       elapsed * 1e9 / float64(b.N),
				PointsPerSec:  points * float64(b.N) / elapsed,
				AllocPerPoint: float64(allocated) / (points * float64(b.N)),
			})
		}
	})

	type tc struct {
		name      string
		compacted bool
		q         tsdb.RangeQuery
	}
	month := tsdb.RangeQuery{Component: "*", Metric: "*", From: 0, To: cbSpanMS}
	mk := func(agg tsdb.Agg, step int64) tsdb.RangeQuery {
		q := month
		q.Agg, q.StepMS = agg, step
		return q
	}
	const hour = int64(3_600_000)
	cases := []tc{
		{"query-max-1h/uncompacted", false, mk(tsdb.AggMax, hour)},
		{"query-max-1h/compacted-ds", true, mk(tsdb.AggMax, hour)},
		{"query-max-5m/compacted-ds", true, mk(tsdb.AggMax, 300_000)},
		{"query-count-1h/compacted-ds", true, mk(tsdb.AggCount, hour)},
		{"query-sum-1h/compacted-raw", true, mk(tsdb.AggSum, hour)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			un, co := cbStores(b)
			store := un
			storeName := "uncompacted"
			if c.compacted {
				store, storeName = co, "compacted"
			}
			ctx := context.Background()
			if res, err := store.QueryRange(ctx, c.q); err != nil || len(res) != cbComps*cbMets {
				b.Fatalf("warmup query: %d results, err %v", len(res), err)
			}
			// The counter makes the JSON self-certifying: a "compacted-ds" row
			// with zero buckets read would mean the fast path silently regressed.
			dsRead := store.Telemetry().DownsampledBucketsRead
			dsBefore := dsRead.Value()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.QueryRange(ctx, c.q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			dsPerOp := int64(dsRead.Value()-dsBefore) / int64(b.N)
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				putCompactRow(compactRow{
					Name: c.name, Store: storeName,
					NsPerOp:      elapsed * 1e9 / float64(b.N),
					PointsPerSec: float64(cbTotalPoints) * float64(b.N) / elapsed,
					DsBucketsOp:  dsPerOp,
				})
			}
		})
	}

	order := []string{"merge-pass", "checkpoint-pass"}
	for _, c := range cases {
		order = append(order, c.name)
	}
	flushCompactJSON(order, "query-max-1h/uncompacted")

	cbFixtures.Lock()
	if cbFixtures.uncompacted != nil {
		_ = cbFixtures.uncompacted.Close()
		_ = cbFixtures.compacted.Close()
		_ = os.RemoveAll(cbFixtures.root)
		cbFixtures.uncompacted, cbFixtures.compacted = nil, nil
		cbFixtures.root, cbFixtures.pristineDir = "", ""
	}
	cbFixtures.Unlock()
}
