// Package core is Sieve's analysis (§2.3) over a recorded window: it
// assembles the window from any tsdb.ReadStore (DatasetFromDB), reduces
// each component's metrics to representatives via variance filtering and
// k-Shape clustering (step 2, ReduceContext), and identifies
// inter-component dependencies with pairwise Granger-causality tests
// restricted to communicating components (step 3,
// IdentifyDependenciesContext). Its end product is an Artifact — the
// windowed Dataset, per-component reductions, and a typed dependency
// graph — that the autoscaling and RCA engines consume and that
// marshal.go serializes for offline comparison.
//
// Steps 2 and 3 take a context for cancellation and fan out over a
// deterministic worker pool (internal/parallel) of runtime.GOMAXPROCS(0)
// workers: ReduceContext per component, IdentifyDependenciesContext per
// communicating pair, and results are bit-identical at any worker count.
//
// Recording a window is not this package's job: the sieved server
// ingests it, and internal/lab captures it from a simulated load session
// (step 1). So core imports no simulator, load generator or metric
// registry, and the daemon links only the analysis.
//
// Dataset assembly has one path: DatasetFromDB reads the window with one
// raw QueryRange and resamples each returned series (skipping the
// store's reserved self-telemetry component). Nothing
// carries from one call, or one online cycle, to the next: every cycle
// assembles its window and runs ReduceContext and
// IdentifyDependenciesContext exactly.
package core
