// Package sieve is a from-scratch Go reproduction of "Sieve: Actionable
// Insights from Monitored Metrics in Distributed Systems" (Thalheim et
// al., ACM/IFIP/USENIX Middleware 2017).
//
// Sieve turns the flood of metrics a microservices application exports
// into a small set of actionable signals in three steps:
//
//  1. Load the application with a workload generator while recording all
//     metrics as time series and extracting the inter-component call
//     graph from a syscall-level trace (no application changes).
//  2. Reduce each component's metrics: drop unvarying series, cluster
//     the rest by shape (k-Shape over the shape-based distance), and
//     keep one representative metric per cluster.
//  3. Identify dependencies: Granger-causality tests between the
//     representative metrics of communicating components yield a typed
//     dependency graph (metric, direction, lag, significance), with
//     bidirectional results filtered as confounded.
//
// The resulting Artifact drives the paper's two case studies, both
// implemented in this module and run by cmd/experiments: threshold
// autoscaling guided by the metric that appears most often in Granger
// relations (Table 4), and root-cause analysis that diffs the artifacts
// of a correct and a faulty version (Table 5, Figures 7-8).
//
// Everything the paper's deployment depended on is implemented in this
// module against the standard library alone: the statistics stack (FFT,
// OLS, F/ADF tests, k-Shape, AMI), the monitoring plane (metric
// registries, a scraping collector, a Gorilla-compressed time-series
// store, sysdig/tcpdump-style tracers), and deterministic simulators of
// the two evaluated applications (ShareLatex and OpenStack, the latter
// with Launchpad bug #1533942 as a switchable fault).
//
// Beyond the paper's offline batch job, the module ships sieved
// (NewServer): a long-running server with sharded line-protocol
// ingestion over HTTP and an online driver that re-runs the analysis
// over a sliding window, serving the latest Artifact — and the live
// autoscaling signal — from its /artifact endpoint. With
// ServerOptions.DataDir set, the store is durable: writes are covered by
// a per-shard CRC-checked write-ahead log and periodically sealed into
// immutable Gorilla-compressed block files with configurable retention,
// so a killed server recovers its data on restart (see
// docs/ARCHITECTURE.md for the storage engine's design).
//
// # Quick start
//
//	app, _ := sieve.NewShareLatex(42)
//	pattern := sieve.RandomLoad(1, 600, 100, 1200)
//	artifact, capture, _ := sieve.Run(app, pattern, sieve.DefaultPipelineOptions())
//	fmt.Println(artifact.Reduction.TotalBefore(), "->", artifact.Reduction.TotalAfter())
//	metric, _ := artifact.Graph.MostFrequentMetric()
//	fmt.Println("autoscaling signal:", metric)
//	_ = capture
package sieve

import (
	"context"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/app/openstack"
	"github.com/sieve-microservices/sieve/internal/app/sharelatex"
	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/core"
	"github.com/sieve-microservices/sieve/internal/loadgen"
	"github.com/sieve-microservices/sieve/internal/metrics"
	"github.com/sieve-microservices/sieve/internal/server"
	"github.com/sieve-microservices/sieve/internal/trace"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// App is a running microservice application simulation. It exposes
// metric registries per component, accepts external load via Step, emits
// trace events for call-graph extraction, and supports runtime scaling
// and fault injection.
type App = app.App

// AppSpec declares a simulated application topology.
type AppSpec = app.Spec

// ComponentSpec declares one microservice component of an AppSpec.
type ComponentSpec = app.ComponentSpec

// ComponentCall declares a downstream dependency of a component.
type ComponentCall = app.Call

// MetricFamily declares a group of related exported metrics derived from
// one simulated signal.
type MetricFamily = app.Family

// Metric family drivers: the simulated signal feeding a family.
const (
	// DriverRate is the arrival rate (requests/second).
	DriverRate = app.DriverRate
	// DriverLatency is the end-to-end latency including lagged
	// downstream contributions (milliseconds).
	DriverLatency = app.DriverLatency
	// DriverOwnLatency is the component-local latency (milliseconds).
	DriverOwnLatency = app.DriverOwnLatency
	// DriverMemory is the memory footprint.
	DriverMemory = app.DriverMemory
)

// Pattern is a load trace: external requests/second per simulation tick.
type Pattern = loadgen.Pattern

// Dataset is a captured load run: every metric resampled onto a regular
// grid plus the observed call graph.
type Dataset = core.Dataset

// Artifact is the pipeline's end product: dataset, per-component metric
// reductions, and the Granger dependency graph.
type Artifact = core.Artifact

// CaptureResult bundles a dataset with the monitoring-plane handles for
// resource accounting.
type CaptureResult = core.CaptureResult

// Reduction maps components to their metric reductions (step 2 output).
type Reduction = core.Reduction

// DependencyGraph is the step-3 output: directed metric-level edges with
// lags and significance.
type DependencyGraph = core.DependencyGraph

// PipelineOptions bundles the options of steps 2 and 3. Step 1 has none
// here: Run scrapes every metric on every tick.
type PipelineOptions = core.PipelineOptions

// CaptureOptions tunes step 1: the allowlist that restricts collection
// to a reduction's representatives. Scrape cadence (every tick) and the
// tracer ring (1<<18 events) are constants.
type CaptureOptions = core.CaptureOptions

// ReduceOptions tunes step 2's variance threshold (0 means the paper's
// 0.002). The cluster-count range (k in [2,7]) and seeding k-Shape by
// metric names are the paper's and fixed, so a zero ReduceOptions runs
// the paper's reduction.
type ReduceOptions = core.ReduceOptions

// DepOptions tunes step 3: the delay bound the Granger lag order derives
// from. The significance level (0.05) and the bidirectional-edge filter
// are the paper's and fixed.
type DepOptions = core.DepOptions

// NewShareLatex builds the simulated ShareLatex deployment (15
// components, ~889 metrics) used by the autoscaling case study.
func NewShareLatex(seed int64) (*App, error) {
	return sharelatex.New(seed)
}

// ShareLatexHubMetric is the metric the paper identified as the best
// autoscaling signal for ShareLatex.
const ShareLatexHubMetric = sharelatex.HubMetric

// NewOpenStack builds the simulated OpenStack deployment (16 components,
// 508 metrics). faulty activates Launchpad bug #1533942 (the Open
// vSwitch agent crash behind "No valid host was found").
func NewOpenStack(seed int64, faulty bool) (*App, error) {
	return openstack.New(seed, faulty)
}

// NewApp builds an application from a custom topology spec.
func NewApp(spec AppSpec, seed int64) (*App, error) {
	return app.New(spec, seed)
}

// ConstantLoad returns a flat load pattern.
func ConstantLoad(rps float64, ticks int) Pattern {
	return loadgen.Constant(rps, ticks)
}

// RandomLoad returns the randomized workload used by the paper's
// robustness experiments (piecewise levels with ramps and jitter).
func RandomLoad(seed int64, ticks int, minRPS, maxRPS float64) Pattern {
	return loadgen.Random(seed, ticks, minRPS, maxRPS)
}

// WorldCupLoad returns a trace with the diurnal-plus-spikes shape of the
// WorldCup'98 HTTP log used by the autoscaling experiment.
func WorldCupLoad(seed int64, ticks int, baseRPS, peakRPS float64) Pattern {
	return loadgen.WorldCup(seed, ticks, baseRPS, peakRPS)
}

// DefaultPipelineOptions returns the paper's parameters: scrape every
// tick, variance threshold 0.002, k in [2,7] with name seeding, 500 ms
// delay bound, alpha 0.05. The analysis stages fan out to
// runtime.GOMAXPROCS(0) workers; results are bit-identical at any worker
// count, so that only affects speed.
func DefaultPipelineOptions() PipelineOptions {
	return PipelineOptions{Reduce: core.DefaultReduceOptions()}
}

// Run executes the full three-step pipeline.
func Run(a *App, pattern Pattern, opts PipelineOptions) (*Artifact, *CaptureResult, error) {
	return core.Run(a, pattern, opts)
}

// MarshalArtifact serializes an artifact to a versioned JSON form for
// offline analysis. The facade does no root-cause analysis; that path is
// cmd/experiments -run table5, which diffs the artifacts of a correct and
// a faulty OpenStack version.
func MarshalArtifact(a *Artifact) ([]byte, error) {
	return core.MarshalArtifact(a)
}

// Server is the sieved daemon: sharded line-protocol ingestion over HTTP
// plus an online pipeline that re-runs Reduce + Granger over a sliding
// window of the ingested data and serves the latest Artifact (with the
// live autoscaling signal) from /artifact.
type Server = server.Server

// ServerOptions configures a Server: shard count, sampling grid, window
// width, recompute cadence, optional topology —
// durability: DataDir enables the WAL + compressed-block storage
// engine, Retention bounds its disk use, Fsync picks the WAL sync
// policy ("always", "interval", "never"), CompactInterval sets the
// background block compactor's cadence, and
// Downsample adds 5m/1h summaries for coarse-step aggregated queries
// over long retention — and window alignment: Incremental aligns each
// window end down to the sampling grid so windows slide by whole steps
// (no state carries across cycles). It has a field for what a
// command, an example or the benchmark sets; the analysis parameters
// (the paper's), the request-body bound, the remote-write size and
// sample limits and the 429's Retry-After, the 64 MiB merged-block cap,
// the 1 s slow-op threshold of /debug/traces and the listener's
// header-read and shutdown-drain timeouts are constants.
type ServerOptions = server.Options

// MinWindowSamples is the fewest grid steps (WindowMS / StepMS) a
// server's analysis window may span; NewServer refuses fewer.
const MinWindowSamples = server.MinWindowSamples

// ServerClient speaks the sieved HTTP API. It implements the store's
// Write contract, so a MetricCollector pointed at a client ships scrapes
// to a remote server over real HTTP.
type ServerClient = server.Client

// RangeQuery is the argument of ServerClient.QueryRange, the client's one
// read: component/metric globs, a [From, To) range in ms, and an optional
// per-step aggregation.
type RangeQuery = tsdb.RangeQuery

// NewServer creates a sieved server with its backing sharded store. Use
// Server.ListenAndServe to serve (it also starts the online pipeline
// driver), or Server.Handler to embed it in an existing HTTP server —
// then start the driver with Server.Start or trigger runs via POST /run.
// With opts.DataDir set, NewServer recovers the previous life's data
// (block files plus WAL replay) before returning; embedders must then
// call Server.Close on shutdown (ListenAndServe does it itself).
func NewServer(opts ServerOptions) (*Server, error) {
	return server.New(opts)
}

// NewServerClient creates a client for the sieved server at baseURL
// (e.g. "http://127.0.0.1:8086").
func NewServerClient(baseURL string) *ServerClient {
	return server.NewClient(baseURL)
}

// MetricRegistry holds the exported metrics of one component (returned
// by App.Registry).
type MetricRegistry = metrics.Registry

// MetricWriter accepts line-protocol payloads: an in-process store or a
// ServerClient shipping over HTTP.
type MetricWriter = tsdb.Writer

// MetricCollector scrapes registries and ships the readings to a
// MetricWriter, mirroring the paper's Telegraf -> InfluxDB pipeline.
type MetricCollector = metrics.Collector

// NewMetricCollector creates a collector shipping scrapes from the given
// registries to w.
func NewMetricCollector(w MetricWriter, registries ...*MetricRegistry) (*MetricCollector, error) {
	return metrics.NewCollector(w, registries...)
}

// DriveLoad replays a load pattern against an application while scraping
// its registries through coll every scrapeEvery ticks (<= 0 means every
// tick) — pointed at a ServerClient, this drives a sieved server end to
// end over real HTTP.
func DriveLoad(ctx context.Context, a *App, p Pattern, coll *MetricCollector, scrapeEvery int) error {
	return loadgen.DriveCollector(ctx, a, p, coll, scrapeEvery)
}

// Tracer is a sysdig-like syscall event sink: bounded ring buffer, user
// filter, binary encoding per event. Attach one to an App to observe its
// network syscalls.
type Tracer = trace.Tracer

// TraceEvent is one captured syscall with process context.
type TraceEvent = trace.Event

// CallGraph is the directed component communication graph.
type CallGraph = callgraph.Graph

// NewTracer creates a syscall tracer with the given ring capacity
// (<= 0 uses the default) and an optional filter (nil keeps everything).
func NewTracer(capacity int, filter func(*TraceEvent) bool) *Tracer {
	if filter == nil {
		return trace.NewTracer(capacity, nil)
	}
	return trace.NewTracer(capacity, trace.Filter(filter))
}

// CallGraphFromSyscalls builds the call graph from a syscall event
// stream using the process context carried by accept/connect events.
func CallGraphFromSyscalls(events []TraceEvent) *CallGraph {
	return callgraph.FromSyscallEvents(events)
}
