// Package core orchestrates the three-step Sieve pipeline (§2.3): load
// the application while recording metrics and the call graph (step 1,
// Capture), reduce each component's metrics to representatives via
// variance filtering and k-Shape clustering (step 2, ReduceContext), and
// identify inter-component dependencies with pairwise Granger-causality
// tests restricted to communicating components (step 3,
// IdentifyDependenciesContext). The pipeline's end product is an Artifact —
// the windowed Dataset, per-component reductions, and a typed
// dependency graph — that the autoscaling and RCA engines consume and
// that marshal.go serializes for offline comparison.
//
// Steps 2 and 3 take a context for cancellation and fan out over a
// deterministic worker pool (internal/parallel) of runtime.GOMAXPROCS(0)
// workers: ReduceContext per component, IdentifyDependenciesContext per
// communicating pair, and results are bit-identical at any worker count.
//
// Batch mode drives all three steps from a simulated load session
// (Run); online mode skips step 1 and assembles the Dataset from a
// store's range query (tsdb.ReadStore) over a sliding window, which is
// how the sieved server re-runs steps 2-3 over live ingested data.
//
// Dataset assembly has one path: DatasetFromDB reads the window with one
// raw QueryRange and resamples each returned series (skipping the
// store's reserved self-telemetry component). Nothing
// carries from one call, or one online cycle, to the next: every cycle
// assembles its window and runs ReduceContext and
// IdentifyDependenciesContext exactly.
package core
