package sieve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/sieve-microservices/sieve/internal/core"
	"github.com/sieve-microservices/sieve/internal/granger"
	"github.com/sieve-microservices/sieve/internal/kshape"
	"github.com/sieve-microservices/sieve/internal/mathx"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// Kernel microbenchmarks: the hot analysis primitives this repo's
// pipeline is built from, measured in isolation so BENCH_kernels.json
// tracks their cost trajectory the way BENCH_online.json tracks whole
// cycles — FFT (complex vs the half-size real path), one SBD distance,
// the SBD distance matrix over cached spectra, the k-selection sweep,
// shape extraction, one pooled Granger pair, and a streaming full-window
// rebuild — and the Gorilla chunk codec under every read, seal,
// checkpoint and compaction.

// kernelRow is one BENCH_kernels.json entry.
type kernelRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

var kernelBench struct {
	sync.Mutex
	rows map[string]kernelRow
}

// flushKernelsJSON, under -benchjson, rewrites BENCH_kernels.json from
// the accumulated rows in fixed case order.
func flushKernelsJSON(order []string) {
	if !*benchJSON {
		return
	}
	kernelBench.Lock()
	defer kernelBench.Unlock()
	var rows []kernelRow
	for _, name := range order {
		if r, ok := kernelBench.rows[name]; ok {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return
	}
	out := struct {
		Benchmark string `json:"benchmark"`
		benchHost
		Results []kernelRow `json:"results"`
	}{
		Benchmark: "BenchmarkKernels",
		benchHost: thisHost(),
		Results:   rows,
	}
	writeBenchJSON("BENCH_kernels.json", out)
}

// runKernelCase measures fn as one benchmark case and records its row.
func runKernelCase(b *testing.B, name string, fn func(b *testing.B)) {
	b.Run(name, func(b *testing.B) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ReportAllocs()
		b.ResetTimer()
		fn(b)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		elapsed := b.Elapsed().Seconds()
		if elapsed <= 0 {
			return
		}
		kernelBench.Lock()
		if kernelBench.rows == nil {
			kernelBench.rows = map[string]kernelRow{}
		}
		kernelBench.rows[name] = kernelRow{
			Name:        name,
			NsPerOp:     elapsed * 1e9 / float64(b.N),
			AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(b.N),
			BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(b.N),
		}
		kernelBench.Unlock()
	})
}

func kernelSeries(comp, met, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = obVal(comp, met, int64(i)*obStepMS)
	}
	return out
}

func BenchmarkKernels(b *testing.B) {
	var order []string

	// FFT: the full complex transform against the half-size real path
	// every correlation in the pipeline now takes.
	for _, n := range []int{256, 1024, 4096} {
		x := kernelSeries(1, 2, n)
		cbuf := make([]complex128, n)
		name := fmt.Sprintf("fft/complex/n=%d", n)
		order = append(order, name)
		runKernelCase(b, name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, v := range x {
					cbuf[j] = complex(v, 0)
				}
				mathx.FFT(cbuf)
			}
		})

		rbuf := make([]complex128, n)
		name = fmt.Sprintf("fft/real/n=%d", n)
		order = append(order, name)
		runKernelCase(b, name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mathx.RealFFT(rbuf, x, n)
			}
		})
	}

	// SBD distance matrix per component width: what the silhouette sweep
	// pays per candidate component, with per-series spectra cached.
	for _, width := range []int{8, 16, 32} {
		series := make([][]float64, width)
		for i := range series {
			series[i] = kernelSeries(i, i%5, obWindowSteps)
		}
		name := fmt.Sprintf("sbd_matrix/width=%d/len=%d", width, obWindowSteps)
		order = append(order, name)
		runKernelCase(b, name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kshape.PairwiseSBD(series); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// One shape-based distance from raw series: two forward real
	// transforms plus the fused product-and-inverse kernel.
	{
		x := kernelSeries(0, 0, obWindowSteps)
		y := kernelSeries(3, 1, obWindowSteps)
		name := fmt.Sprintf("sbd_dist/len=%d", obWindowSteps)
		order = append(order, name)
		runKernelCase(b, name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kshape.SBD(x, y)
			}
		})
	}

	// The k-selection sweep of one component: distance matrix, then
	// name-seeded k-Shape at k = 2..7 scored by silhouette, one worker.
	for _, width := range []int{16, 64} {
		series := make([][]float64, width)
		names := make([]string, width)
		for i := range series {
			series[i] = kernelSeries(i, i%5, obWindowSteps)
			names[i] = fmt.Sprintf("family%d_metric_%02d", i%5, i)
		}
		name := fmt.Sprintf("sweep/width=%d/len=%d", width, obWindowSteps)
		order = append(order, name)
		runKernelCase(b, name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kshape.ChooseKFromDist(context.Background(), series, nil, names, 2, 7, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Shape extraction of one 32-member cluster: a K=1 run is one
	// refinement (the 240-wide power iteration over all members) plus
	// the members' transforms and their 32 distances to the result.
	{
		series := make([][]float64, 32)
		for i := range series {
			series[i] = kernelSeries(i, 2*(i%3), obWindowSteps)
		}
		name := fmt.Sprintf("shape_extraction/members=32/len=%d", obWindowSteps)
		order = append(order, name)
		runKernelCase(b, name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kshape.Cluster(series, kshape.Options{K: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Granger per pair: one pooled bidirectional test at window length.
	{
		x := kernelSeries(0, 1, obWindowSteps)
		y := kernelSeries(1, 1, obWindowSteps)
		var s granger.Scratch
		opts := granger.Options{MaxLag: 1}
		name := fmt.Sprintf("granger/pair/len=%d", obWindowSteps)
		order = append(order, name)
		runKernelCase(b, name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := granger.DirectionWith(x, y, opts, &s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Full-rebuild assemble: the streaming scan decoding a whole window
	// straight into bucket rings plus dataset assembly — the cost a
	// forced full recompute pays on top of a warm incremental cycle.
	{
		const comps, mets = 8, 8
		db := newBenchStore(b, comps, mets)
		cache := core.NewWindowCache("bench", obStepMS)
		end := int64(obWindowSteps) * obStepMS
		name := fmt.Sprintf("rebuild/series=%d/steps=%d", comps*mets, obWindowSteps)
		order = append(order, name)
		runKernelCase(b, name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cache.Invalidate()
				if _, _, err := cache.Advance(db, 0, end); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Gorilla codec, ns per point (one op is one point: b.N counts points,
	// rounded up to whole chunks) on sievebench's two dashboard value
	// shapes, at a hot-head chunk length and at the block writer's cap.
	for _, shape := range []struct {
		name string
		gen  func(n int) []tsdb.Point
	}{{"walk2dec", benchWalk2Dec}, {"counter", benchCounter}} {
		for _, n := range []int{240, 4096} {
			pts := shape.gen(n)
			chunk, err := tsdb.CompressBlock(pts)
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("gorilla/encode/%s/points=%d", shape.name, n)
			order = append(order, name)
			runKernelCase(b, name, func(b *testing.B) {
				for i := 0; i < b.N; i += n {
					if _, err := tsdb.CompressBlock(pts); err != nil {
						b.Fatal(err)
					}
				}
			})
			name = fmt.Sprintf("gorilla/decode/%s/points=%d", shape.name, n)
			order = append(order, name)
			runKernelCase(b, name, func(b *testing.B) {
				for i := 0; i < b.N; i += n {
					if _, err := tsdb.DecompressBlock(chunk); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	flushKernelsJSON(order)
}

// benchWalk2Dec is sievebench's gauge shape: a random walk rounded to two
// decimals on a 15 s scrape grid.
func benchWalk2Dec(n int) []tsdb.Point {
	rng := rand.New(rand.NewSource(1))
	v := math.Round(rng.Float64()*1000*100) / 100
	pts := make([]tsdb.Point, n)
	for i := range pts {
		v = math.Round((v+rng.NormFloat64()*3)*100) / 100
		pts[i] = tsdb.Point{T: 1_699_999_200_000 + int64(i)*15_000, V: v}
	}
	return pts
}

// benchCounter is sievebench's counter shape: an integer growing by 0..63
// per scrape.
func benchCounter(n int) []tsdb.Point {
	rng := rand.New(rand.NewSource(2))
	var v float64
	pts := make([]tsdb.Point, n)
	for i := range pts {
		v += float64(rng.Intn(64))
		pts[i] = tsdb.Point{T: 1_699_999_200_000 + int64(i)*15_000, V: v}
	}
	return pts
}

// newBenchStore prefills a sharded store with one window of the online
// benchmark's signal.
func newBenchStore(b *testing.B, comps, mets int) *tsdb.Sharded {
	b.Helper()
	st := tsdb.NewSharded(4)
	if err := st.WriteSamples(obSamples(comps, mets, 0, int64(obWindowSteps)*obStepMS), 0); err != nil {
		b.Fatal(err)
	}
	st.Flush()
	return st
}
