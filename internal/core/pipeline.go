package core

import (
	"context"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/loadgen"
)

// Artifact is the end product of a full pipeline run on one application
// version: everything downstream engines (autoscaling, RCA) consume.
type Artifact struct {
	// App names the application.
	App string
	// Dataset is the step-1 capture.
	Dataset *Dataset
	// Reduction is the step-2 output.
	Reduction Reduction
	// Graph is the step-3 dependency graph.
	Graph *DependencyGraph
}

// PipelineOptions bundles the options of steps 2 and 3; step 1 captures
// every metric on every tick.
type PipelineOptions struct {
	// Reduce configures step 2.
	Reduce ReduceOptions
	// Deps configures step 3.
	Deps DepOptions
}

// Run executes the full three-step pipeline against an application under
// the given load pattern and returns the artifact plus the capture
// handles (for resource accounting).
func Run(a *app.App, pattern loadgen.Pattern, opts PipelineOptions) (*Artifact, *CaptureResult, error) {
	return RunContext(context.Background(), a, pattern, opts)
}

// RunContext is Run with cancellation: the context is threaded through
// every stage, and each stage fans its independent units of work
// (components in Reduce, communicating pairs in IdentifyDependencies,
// candidate cluster counts in the silhouette sweep) out to a worker
// pool of runtime.GOMAXPROCS(0) workers.
func RunContext(ctx context.Context, a *app.App, pattern loadgen.Pattern, opts PipelineOptions) (*Artifact, *CaptureResult, error) {
	capture, err := CaptureContext(ctx, a, pattern, CaptureOptions{})
	if err != nil {
		return nil, nil, err
	}
	red, err := ReduceContext(ctx, capture.Dataset, opts.Reduce)
	if err != nil {
		return nil, nil, err
	}
	graph, err := IdentifyDependenciesContext(ctx, capture.Dataset, red, opts.Deps)
	if err != nil {
		return nil, nil, err
	}
	return &Artifact{
		App:       a.Name(),
		Dataset:   capture.Dataset,
		Reduction: red,
		Graph:     graph,
	}, capture, nil
}
