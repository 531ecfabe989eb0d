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
// shape extraction, one Granger preparation and one prepared pair, and a
// streaming whole-window assembly — and the Gorilla chunk codec under
// every read, seal, checkpoint and compaction.

// kernelRow is one BENCH_kernels.json entry: the spread of its ns/op
// over the -count runs, and the median allocations and bytes per op.
type kernelRow struct {
	Name        string      `json:"name"`
	NsPerOp     benchSpread `json:"ns_per_op"`
	AllocsPerOp int64       `json:"allocs_per_op"`
	BytesPerOp  int64       `json:"bytes_per_op"`
}

// kernelSample is one run's measurement of one case at b.N iterations.
type kernelSample struct {
	n                 int
	ns, allocs, bytes float64
}

// Sinks keep the compiler from dropping a benchmarked call.
var (
	preparedSink *granger.Prepared
	floatSink    float64
	intSink      int
)

var kernelBench struct {
	sync.Mutex
	samples map[string][]kernelSample
}

// flushKernelsJSON, under -benchjson, rewrites BENCH_kernels.json from
// the samples accumulated so far, in fixed case order.
func flushKernelsJSON(order []string) {
	if !*benchJSON {
		return
	}
	kernelBench.Lock()
	defer kernelBench.Unlock()
	var rows []kernelRow
	for _, name := range order {
		samples := kernelBench.samples[name]
		if len(samples) == 0 {
			continue
		}
		ns, allocs, bytes := make([]float64, len(samples)), make([]float64, len(samples)), make([]float64, len(samples))
		for i, s := range samples {
			ns[i], allocs[i], bytes[i] = s.ns, s.allocs, s.bytes
		}
		rows = append(rows, kernelRow{
			Name:        name,
			NsPerOp:     spreadOf(ns),
			AllocsPerOp: int64(spreadOf(allocs).Median),
			BytesPerOp:  int64(spreadOf(bytes).Median),
		})
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

// runKernelCase measures fn as one benchmark case and adds one sample per
// -count iteration to the case's samples. b.Run makes each iteration's
// runs with a growing b.N, starting over at b.N = 1, and the last run of
// an iteration is its measurement.
func runKernelCase(b *testing.B, name string, fn func(b *testing.B)) {
	var runs []kernelSample
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
		runs = append(runs, kernelSample{
			n:      b.N,
			ns:     elapsed * 1e9 / float64(b.N),
			allocs: float64((after.Mallocs - before.Mallocs) / uint64(b.N)),
			bytes:  float64((after.TotalAlloc - before.TotalAlloc) / uint64(b.N)),
		})
	})
	kernelBench.Lock()
	defer kernelBench.Unlock()
	if kernelBench.samples == nil {
		kernelBench.samples = map[string][]kernelSample{}
	}
	for i, r := range runs {
		if i+1 == len(runs) || runs[i+1].n == 1 {
			kernelBench.samples[name] = append(kernelBench.samples[name], r)
		}
	}
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

	// The three loops under them, on a 240-step window: shape
	// extraction's operator (both products over 32 member rows), the SBD
	// peak scan of one correlation as sbd runs it (the largest part of
	// both shift ranges, then the first part near it) and one spectral
	// bound's dot product.
	{
		rows := make([][]float64, 32)
		for i := range rows {
			rows[i] = kernelSeries(i, 2*(i%3), obWindowSteps)
		}
		var r mathx.Rows
		r.Reset(rows)
		centered, dst := kernelSeries(5, 1, obWindowSteps), make([]float64, obWindowSteps)
		name := fmt.Sprintf("shape_operator/members=32/len=%d", obWindowSteps)
		order = append(order, name)
		runKernelCase(b, name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.AddScaled(dst, r.Dots(centered))
			}
		})

		x, y := kernelSeries(0, 0, obWindowSteps), kernelSeries(3, 1, obWindowSteps)
		m := mathx.NextPow2(2*obWindowSteps - 1)
		fx, fy := mathx.RealFFT(make([]complex128, m), x, m), mathx.RealFFT(make([]complex128, m), y, m)
		z := mathx.CorrelateSpectra(fx, fy, make([]complex128, m/2))
		name = fmt.Sprintf("sbd_scan/len=%d", obWindowSteps)
		order = append(order, name)
		runKernelCase(b, name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				neg, _ := mathx.LargestPart(z, m-(obWindowSteps-1), m)
				pos, _ := mathx.LargestPart(z, 0, obWindowSteps)
				largest := max(neg, pos)
				threshold := largest - math.Abs(largest)*0x1p-50
				at := mathx.FirstPartAtLeast(z, m-(obWindowSteps-1), m, threshold)
				if at == m {
					at = mathx.FirstPartAtLeast(z, 0, obWindowSteps, threshold)
				}
				intSink = at
			}
		})

		mags := func(spec []complex128) []float64 {
			out := make([]float64, m/2+1)
			for k := range out {
				out[k] = math.Hypot(real(spec[k]), imag(spec[k]))
			}
			return out
		}
		mx, my := mags(fx), mags(fy)
		name = fmt.Sprintf("spectral_bound/len=%d", obWindowSteps)
		order = append(order, name)
		runKernelCase(b, name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				floatSink = mathx.Dot(mx, my)
			}
		})
	}

	// Granger as step 3 runs it: one Prepare per representative, then one
	// pooled bidirectional DirectionPrepared per pair, at window length.
	{
		x := kernelSeries(0, 1, obWindowSteps)
		y := kernelSeries(1, 1, obWindowSteps)
		var s granger.Scratch
		opts := granger.Options{MaxLag: 1}
		name := fmt.Sprintf("granger/prepare/len=%d", obWindowSteps)
		order = append(order, name)
		runKernelCase(b, name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				preparedSink = granger.Prepare(x, opts, &s)
			}
		})
		px, py := granger.Prepare(x, opts, &s), granger.Prepare(y, opts, &s)
		name = fmt.Sprintf("granger/pair/len=%d", obWindowSteps)
		order = append(order, name)
		runKernelCase(b, name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := granger.DirectionPrepared(px, py, &s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Whole-window assemble: DatasetFromDB's streaming scan decoding a
	// window straight into the bucket grid plus dataset assembly — what
	// every online cycle pays before reduction.
	{
		const comps, mets = 8, 8
		db := newBenchStore(b, comps, mets)
		end := int64(obWindowSteps) * obStepMS
		name := fmt.Sprintf("rebuild/series=%d/steps=%d", comps*mets, obWindowSteps)
		order = append(order, name)
		runKernelCase(b, name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DatasetFromDB(db, "bench", obStepMS, 0, end); err != nil {
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
