// Package lab is the half of Sieve that drives a simulated application
// (§2.3): step 1, which loads the application with a workload while
// scraping every metric into a fresh store and tracing its syscalls
// (Capture), and the batch pipeline, which runs steps 2 and 3 of
// internal/core over that capture (Run). The analysis itself lives in
// internal/core and reads any tsdb.ReadStore; the sieved daemon links
// only that half, never the simulators, load generator and metric
// registries imported here.
package lab

import (
	"context"
	"errors"
	"fmt"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/core"
	"github.com/sieve-microservices/sieve/internal/loadgen"
	"github.com/sieve-microservices/sieve/internal/metrics"
	"github.com/sieve-microservices/sieve/internal/trace"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// CaptureResult bundles the dataset with the monitoring-plane state so
// experiments can inspect resource accounting (Table 3) and tracer
// overhead (Fig. 5).
type CaptureResult struct {
	// Dataset is the resampled capture.
	Dataset *core.Dataset
	// DB is the backing store with its resource accounting.
	DB *tsdb.Sharded
	// Collector reports the scrape-side accounting.
	Collector *metrics.Collector
	// Tracer is the syscall tracer used for the call graph.
	Tracer *trace.Tracer
}

// CaptureOptions tunes Capture.
type CaptureOptions struct {
	// Allowlist, when non-nil, restricts collection to these
	// component/metric keys (used to measure the reduced pipeline).
	Allowlist []string
}

// tracerCapacity bounds the capture's syscall ring buffer.
const tracerCapacity = 1 << 18

// Capture performs Sieve's step 1: drive the application with the load
// pattern, scrape all component registries into a fresh store every tick,
// record the syscall stream, and return the resampled dataset plus the
// monitoring-plane handles. The context is checked on every simulation
// tick, so a cancellation mid-load surfaces as ctx.Err() without draining
// the remaining pattern, and the first failed scrape stops the load the
// same way. Capture is single-threaded: the simulation advances one
// global clock, so there is nothing to fan out.
func Capture(ctx context.Context, a *app.App, pattern loadgen.Pattern, opts CaptureOptions) (*CaptureResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(pattern) == 0 {
		return nil, errors.New("lab: empty load pattern")
	}

	db := tsdb.NewSharded(1)
	coll, err := metrics.NewCollector(db, a.Registries()...)
	if err != nil {
		return nil, err
	}
	coll.SetAllowlist(opts.Allowlist)
	tr := trace.NewTracer(tracerCapacity, nil)
	a.AttachTracer(tr)

	start := a.Now()
	err = loadgen.DriveCollector(ctx, a, pattern, coll)
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, ctxErr
	}
	if err != nil {
		return nil, fmt.Errorf("lab: scraping during capture: %w", err)
	}
	end := a.Now()

	ds, err := core.DatasetFromDB(db, a.Name(), a.TickMS(), start, end)
	if err != nil {
		return nil, err
	}
	ds.CallGraph = callgraph.FromSyscallEvents(tr.Events())
	return &CaptureResult{Dataset: ds, DB: db, Collector: coll, Tracer: tr}, nil
}

// PipelineOptions bundles the options of steps 2 and 3; step 1 captures
// every metric on every tick.
type PipelineOptions struct {
	// Reduce configures step 2.
	Reduce core.ReduceOptions
	// Deps configures step 3.
	Deps core.DepOptions
}

// Run executes the full three-step pipeline against an application under
// the given load pattern and returns the artifact plus the capture
// handles (for resource accounting). The context is threaded through
// every stage, and steps 2 and 3 fan their independent units of work
// (components in ReduceContext, communicating pairs in
// IdentifyDependenciesContext, candidate cluster counts in the
// silhouette sweep) out to a worker pool of runtime.GOMAXPROCS(0)
// workers.
func Run(ctx context.Context, a *app.App, pattern loadgen.Pattern, opts PipelineOptions) (*core.Artifact, *CaptureResult, error) {
	capture, err := Capture(ctx, a, pattern, CaptureOptions{})
	if err != nil {
		return nil, nil, err
	}
	red, err := core.ReduceContext(ctx, capture.Dataset, opts.Reduce)
	if err != nil {
		return nil, nil, err
	}
	graph, err := core.IdentifyDependenciesContext(ctx, capture.Dataset, red, opts.Deps)
	if err != nil {
		return nil, nil, err
	}
	return &core.Artifact{
		App:       a.Name(),
		Dataset:   capture.Dataset,
		Reduction: red,
		Graph:     graph,
	}, capture, nil
}
