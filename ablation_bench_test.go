package sieve

import (
	"context"
	"testing"

	"github.com/sieve-microservices/sieve/internal/core"
	"github.com/sieve-microservices/sieve/internal/kshape"
	"github.com/sieve-microservices/sieve/internal/lab"
	"github.com/sieve-microservices/sieve/internal/loadgen"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// bidirectional-edge filter, metric-name seeding of k-Shape, the
// variance pre-filter, and the discretization interval. Each reports the
// metric that the design choice trades off.

// ablationCapture runs one small ShareLatex capture shared by the
// ablation benches (rebuilt per bench to keep them independent).
func ablationCapture(b *testing.B) *lab.CaptureResult {
	b.Helper()
	app, err := NewShareLatex(42)
	if err != nil {
		b.Fatal(err)
	}
	res, err := lab.Capture(context.Background(), app, loadgen.Random(1, 200, 200, 2500), lab.CaptureOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationBidirectionalFilter compares the dependency graph
// with and without the §3.3 bidirectional (confounder) filter. The
// filter's value: edges dropped as spurious do not reach the autoscaler
// or the RCA engine. The filter is not an option; the unfiltered graph
// would hold both directions of every pair it counts as dropped.
func BenchmarkAblationBidirectionalFilter(b *testing.B) {
	res := ablationCapture(b)
	red, err := core.ReduceContext(context.Background(), res.Dataset, core.DefaultReduceOptions())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		filtered, err := core.IdentifyDependenciesContext(context.Background(), res.Dataset, red, core.DepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(filtered.Edges)), "edges_filtered")
			b.ReportMetric(float64(len(filtered.Edges)+2*filtered.Bidirectional), "edges_unfiltered")
			b.ReportMetric(float64(filtered.Bidirectional), "spurious_dropped")
		}
	}
}

// BenchmarkAblationNameSeeding compares k-Shape initialized from metric
// names (the paper's §3.2 optimization) against random initialization.
// The claim to verify: seeding speeds convergence without changing the
// outcome quality.
func BenchmarkAblationNameSeeding(b *testing.B) {
	res := ablationCapture(b)
	for i := 0; i < b.N; i++ {
		var seededIters, randomIters int
		for _, comp := range res.Dataset.Components() {
			var names []string
			var series [][]float64
			for _, name := range res.Dataset.MetricNames(comp) {
				vals := res.Dataset.Get(comp, name).Values
				names = append(names, name)
				series = append(series, vals)
			}
			if len(series) < 4 {
				continue
			}
			k := 4
			// A one-k sweep with names is one Cluster run from the
			// name-seeded initial assignment.
			seeded, err := kshape.ChooseKFromDist(context.Background(), series, nil, names, k, k, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			random, err := kshape.Cluster(series, kshape.Options{K: k, Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			seededIters += seeded.Iterations
			randomIters += random.Iterations
		}
		if i == b.N-1 {
			b.ReportMetric(float64(seededIters), "iters_name_seeded")
			b.ReportMetric(float64(randomIters), "iters_random_init")
		}
	}
}

// BenchmarkAblationVarianceFilter compares reduction with the paper's
// 0.002 variance pre-filter against reduction with the filter disabled
// (threshold pushed to ~0). The filter's value: constants and dead
// series never reach the clustering stage.
func BenchmarkAblationVarianceFilter(b *testing.B) {
	res := ablationCapture(b)
	for i := 0; i < b.N; i++ {
		withFilter, err := core.ReduceContext(context.Background(), res.Dataset, core.DefaultReduceOptions())
		if err != nil {
			b.Fatal(err)
		}
		noFilterOpts := core.DefaultReduceOptions()
		noFilterOpts.VarianceThreshold = 1e-12
		withoutFilter, err := core.ReduceContext(context.Background(), res.Dataset, noFilterOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			filtered := 0
			for _, cr := range withFilter {
				filtered += len(cr.Filtered)
			}
			b.ReportMetric(float64(filtered), "metrics_prefiltered")
			b.ReportMetric(float64(withFilter.TotalAfter()), "reps_with_filter")
			b.ReportMetric(float64(withoutFilter.TotalAfter()), "reps_without_filter")
		}
	}
}

// BenchmarkAblationDiscretization compares the paper's 500 ms grid with
// the 2 s grid of the original k-Shape work (§3.2 argues the finer grid
// improves cross-component matching). Reported: dependency edges found
// on each grid for the same run.
func BenchmarkAblationDiscretization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		edges := map[int64]int{}
		for _, stepMS := range []int64{500, 2000} {
			app, err := NewShareLatex(42)
			if err != nil {
				b.Fatal(err)
			}
			res, err := lab.Capture(context.Background(), app, loadgen.Random(1, 200, 200, 2500), lab.CaptureOptions{})
			if err != nil {
				b.Fatal(err)
			}
			// Re-grid the capture at the coarser interval.
			ds, err := core.DatasetFromDB(res.DB, "sharelatex", stepMS, res.Dataset.Start, res.Dataset.End)
			if err != nil {
				b.Fatal(err)
			}
			ds.CallGraph = res.Dataset.CallGraph
			red, err := core.ReduceContext(context.Background(), ds, core.DefaultReduceOptions())
			if err != nil {
				b.Fatal(err)
			}
			graph, err := core.IdentifyDependenciesContext(context.Background(), ds, red, core.DepOptions{})
			if err != nil {
				b.Fatal(err)
			}
			edges[stepMS] = len(graph.Edges)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(edges[500]), "edges_500ms_grid")
			b.ReportMetric(float64(edges[2000]), "edges_2s_grid")
		}
	}
}
