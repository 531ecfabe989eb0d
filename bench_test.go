package sieve

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/sieve-microservices/sieve/internal/core"
	"github.com/sieve-microservices/sieve/internal/experiments"
	"github.com/sieve-microservices/sieve/internal/lab"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (§6). They share one cached Suite so the expensive pipeline
// runs (five ShareLatex captures, the OpenStack correct/faulty pair) are
// paid once per `go test -bench` invocation; each benchmark reports its
// artifact's headline numbers via b.ReportMetric. Sizes follow the quick
// configuration — run cmd/experiments for the paper-scale version.

var (
	benchSuiteOnce sync.Once
	benchSuite     *experiments.Suite
)

func sharedSuite() *experiments.Suite {
	benchSuiteOnce.Do(func() {
		benchSuite = experiments.NewSuite(experiments.QuickConfig())
	})
	return benchSuite
}

// benchArtifact runs one experiment per iteration and reports its values.
func benchArtifact(b *testing.B, run func() (*experiments.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for k, v := range res.Values {
				b.ReportMetric(v, k)
			}
		}
	}
}

var (
	benchCaptureOnce sync.Once
	benchCapture     *CaptureResult
	benchCaptureErr  error
)

// sharedCapture captures one quick-config ShareLatex dataset (200 ticks,
// randomized load) for the parallel pipeline benchmarks. The dataset is
// read-only in steps 2 and 3, so all worker counts share it.
func sharedCapture() (*CaptureResult, error) {
	benchCaptureOnce.Do(func() {
		app, err := NewShareLatex(42)
		if err != nil {
			benchCaptureErr = err
			return
		}
		benchCapture, benchCaptureErr = lab.Capture(context.Background(), app, RandomLoad(142, 200, 200, 2500), CaptureOptions{})
	})
	return benchCapture, benchCaptureErr
}

// reduceAndDeps runs the full analysis path (Reduce + IdentifyDependencies)
// at the given worker count (GOMAXPROCS, the fan-outs' only size; 0 leaves
// the machine's) and returns the resulting artifact bytes.
func reduceAndDeps(ds *Dataset, workers int) ([]byte, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	ctx := context.Background()
	red, err := core.ReduceContext(ctx, ds, DefaultPipelineOptions().Reduce)
	if err != nil {
		return nil, err
	}
	graph, err := core.IdentifyDependenciesContext(ctx, ds, red, DepOptions{})
	if err != nil {
		return nil, err
	}
	return MarshalArtifact(&Artifact{App: ds.App, Dataset: ds, Reduction: red, Graph: graph})
}

// BenchmarkPipelineParallel measures the concurrent executor on the full
// Reduce+Deps path over a quick-config ShareLatex capture at 1, 4, and
// GOMAXPROCS workers; the wall-clock ratio between the workers=1 and
// workers=4 variants is the tracked speedup. Before timing, each variant
// is checked to produce the exact bytes of the sequential path.
func BenchmarkPipelineParallel(b *testing.B) {
	capture, err := sharedCapture()
	if err != nil {
		b.Fatal(err)
	}
	ds := capture.Dataset
	sequential, err := reduceAndDeps(ds, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=4", 4},
		{fmt.Sprintf("workers=gomaxprocs(%d)", runtime.GOMAXPROCS(0)), 0},
	} {
		b.Run(bench.name, func(b *testing.B) {
			got, err := reduceAndDeps(ds, bench.workers)
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(sequential, got) {
				b.Fatalf("artifact at %s differs from the sequential path", bench.name)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reduceAndDeps(ds, bench.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1MetricInventory regenerates Table 1 (metric populations
// of the evaluated applications).
func BenchmarkTable1MetricInventory(b *testing.B) {
	benchArtifact(b, sharedSuite().Table1)
}

// BenchmarkFigure3ClusteringConsistency regenerates Fig. 3 (pairwise AMI
// of cluster assignments across randomized runs; paper average 0.597).
func BenchmarkFigure3ClusteringConsistency(b *testing.B) {
	benchArtifact(b, sharedSuite().Figure3)
}

// BenchmarkFigure4MetricReduction regenerates Fig. 4 (metrics before and
// after reduction per ShareLatex component; paper 889 -> 65).
func BenchmarkFigure4MetricReduction(b *testing.B) {
	benchArtifact(b, sharedSuite().Figure4)
}

// BenchmarkFigure5TracingOverhead regenerates Fig. 5 (HTTP completion
// time under native / sysdig-style / tcpdump-style tracing; paper +22%
// and +7%).
func BenchmarkFigure5TracingOverhead(b *testing.B) {
	benchArtifact(b, sharedSuite().Figure5)
}

// BenchmarkTable3MonitoringGains regenerates Table 3 (monitoring CPU,
// storage and network before/after reduction; paper -81%/-94%/-79%/-51%).
func BenchmarkTable3MonitoringGains(b *testing.B) {
	benchArtifact(b, sharedSuite().Table3)
}

// BenchmarkFigure6DependencyGraph regenerates Fig. 6 (the ShareLatex
// Granger dependency graph and its most frequent metric).
func BenchmarkFigure6DependencyGraph(b *testing.B) {
	benchArtifact(b, sharedSuite().Figure6)
}

// BenchmarkTable4Autoscaling regenerates Table 4 (CPU-threshold vs
// Sieve-guided autoscaling under the WorldCup-shaped trace).
func BenchmarkTable4Autoscaling(b *testing.B) {
	benchArtifact(b, sharedSuite().Table4)
}

// BenchmarkTable5RCARanking regenerates Table 5 (OpenStack components
// ranked by metric novelty between correct and faulty versions).
func BenchmarkTable5RCARanking(b *testing.B) {
	benchArtifact(b, sharedSuite().Table5)
}

// BenchmarkFigure7RCAFiltering regenerates Fig. 7 (cluster novelty
// classification and the similarity-threshold edge-filtering sweep).
func BenchmarkFigure7RCAFiltering(b *testing.B) {
	benchArtifact(b, sharedSuite().Figure7)
}

// BenchmarkFigure8RCAFinalEdges regenerates Fig. 8 (final edge
// differences among the top-5 suspect components).
func BenchmarkFigure8RCAFinalEdges(b *testing.B) {
	benchArtifact(b, sharedSuite().Figure8)
}
