package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/loadgen"
	"github.com/sieve-microservices/sieve/internal/metrics"
	"github.com/sieve-microservices/sieve/internal/timeseries"
	"github.com/sieve-microservices/sieve/internal/trace"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// ErrNoSeries reports that a capture window held no series at all.
// Callers that slide windows over a live store treat it as "waiting for
// data" rather than a pipeline failure: a window can legitimately be
// empty when ingest has not reached it yet, or when every series in it
// is filtered out of analysis (e.g. the server's reserved
// self-telemetry component).
var ErrNoSeries = errors.New("core: capture produced no series")

// Dataset is the captured observation of one load run: every metric as a
// regular time series plus the call graph.
type Dataset struct {
	// App names the application.
	App string
	// StepMS is the sampling grid (the paper's 500 ms discretization).
	StepMS int64
	// Start and End bound the capture window in milliseconds.
	Start, End int64
	// Series maps component -> metric -> resampled series.
	Series map[string]map[string]*timeseries.Regular
	// CallGraph holds the observed component communication.
	CallGraph *callgraph.Graph
}

// Components returns the components present in the dataset, sorted.
func (d *Dataset) Components() []string {
	out := make([]string, 0, len(d.Series))
	for c := range d.Series {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// MetricNames returns a component's captured metric names, sorted.
func (d *Dataset) MetricNames(component string) []string {
	m := d.Series[component]
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TotalMetrics counts all captured series.
func (d *Dataset) TotalMetrics() int {
	n := 0
	for _, m := range d.Series {
		n += len(m)
	}
	return n
}

// Get returns one series or nil.
func (d *Dataset) Get(component, metric string) *timeseries.Regular {
	return d.Series[component][metric]
}

// CaptureResult bundles the dataset with the monitoring-plane state so
// experiments can inspect resource accounting (Table 3) and tracer
// overhead (Fig. 5).
type CaptureResult struct {
	// Dataset is the resampled capture.
	Dataset *Dataset
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
// monitoring-plane handles.
func Capture(a *app.App, pattern loadgen.Pattern, opts CaptureOptions) (*CaptureResult, error) {
	return CaptureContext(context.Background(), a, pattern, opts)
}

// CaptureContext is Capture with cancellation: the context is checked on
// every simulation tick, so a cancellation mid-load surfaces as ctx.Err()
// without draining the remaining pattern, and the first failed scrape
// stops the load the same way. Capture itself stays
// single-threaded — the simulation advances one global clock, so there
// is nothing to fan out.
func CaptureContext(ctx context.Context, a *app.App, pattern loadgen.Pattern, opts CaptureOptions) (*CaptureResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(pattern) == 0 {
		return nil, errors.New("core: empty load pattern")
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
	err = loadgen.DriveCollector(ctx, a, pattern, coll, 1)
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, ctxErr
	}
	if err != nil {
		return nil, fmt.Errorf("core: scraping during capture: %w", err)
	}
	end := a.Now()

	ds, err := DatasetFromDB(db, a.Name(), a.TickMS(), start, end)
	if err != nil {
		return nil, err
	}
	ds.CallGraph = callgraph.FromSyscallEvents(tr.Events())
	return &CaptureResult{Dataset: ds, DB: db, Collector: coll, Tracer: tr}, nil
}

// DatasetFromDB reads every series in the store — any tsdb.ReadStore,
// including the sharded server store — resamples it onto the given grid,
// and assembles a Dataset (without a call graph). Nothing is kept between
// calls: the online driver calls it afresh every cycle.
//
// The store's streaming scan decodes chunks directly into one flat bucket
// grid (series i owns sums[i*n:(i+1)*n]) — no []Point or SeriesResult
// materializes — then each occupied row goes through the same
// timeseries.FromBuckets second half Resample uses. The accumulation
// (skip guards, += order) is statement-for-statement Resample's own loop,
// so the assembled dataset is bit-identical to resampling each series'
// raw query result. Rows are disjoint, so the store may visit different
// series concurrently.
func DatasetFromDB(db tsdb.ReadStore, appName string, stepMS, start, end int64) (*Dataset, error) {
	if stepMS <= 0 {
		return nil, fmt.Errorf("core: dataset assembly has non-positive step %d", stepMS)
	}
	if end <= start {
		return nil, fmt.Errorf("core: empty capture window [%d,%d)", start, end)
	}
	ds := &Dataset{
		App:    appName,
		StepMS: stepMS,
		Start:  start,
		End:    end,
		Series: map[string]map[string]*timeseries.Regular{},
	}
	n := timeseries.GridBuckets(start, end, stepMS)
	var (
		keys   []string
		sums   []float64
		counts []int
	)
	err := db.ScanMatch("*", "*", start, end, func(ks []string) {
		keys = ks
		sums = make([]float64, len(ks)*n)
		counts = make([]int, len(ks)*n)
	}, func(i int, t int64, v float64) {
		if t < start || t >= end || math.IsNaN(v) {
			return
		}
		b := int((t - start) / stepMS)
		sums[i*n+b] += v
		counts[i*n+b]++
	})
	if err != nil {
		return nil, fmt.Errorf("core: matcher scan over window: %w", err)
	}
	for i, key := range keys {
		component, metric := splitStoreKey(key)
		reg, err := timeseries.FromBuckets(metric, start, stepMS, sums[i*n:(i+1)*n], counts[i*n:(i+1)*n])
		if err != nil {
			continue // no usable points in the window: skipped, not fatal
		}
		if ds.Series[component] == nil {
			ds.Series[component] = map[string]*timeseries.Regular{}
		}
		ds.Series[component][metric] = reg
	}
	if len(ds.Series) == 0 {
		return nil, ErrNoSeries
	}
	return ds, nil
}

// splitStoreKey splits a series key the way the tsdb query engine does:
// at the first slash, or (component, "") when there is none — so keys
// streamed by ScanMatch resolve to the same component/metric pair query
// results carry.
func splitStoreKey(key string) (component, metric string) {
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i], key[i+1:]
	}
	return key, ""
}

// AlignWindowEnd returns the exclusive end of the last grid step fully
// completed by maxTime — i.e. aligned DOWN, so a point at a
// grid-aligned maxTime itself sits just past the returned end and only
// enters the window once its step completes. The online driver's
// grid-aligned (-incremental) windows use it, so consecutive windows
// slide by whole steps. It returns 0 when not even one full step has
// completed.
func AlignWindowEnd(maxTime, stepMS int64) int64 {
	if stepMS <= 0 {
		return maxTime + 1
	}
	return (maxTime + 1) / stepMS * stepMS
}

// WindowCache holds no window: Advance is DatasetFromDB. It exists only
// because sievebench's trace replay (bench/trace_pipeline.go) times
// Advance beside DatasetFromDB, and it goes with ROADMAP item 2.
type WindowCache struct {
	appName string
	stepMS  int64
}

// AdvanceStats is the empty second result of WindowCache.Advance.
type AdvanceStats struct{}

// NewWindowCache returns a WindowCache for the app and grid.
func NewWindowCache(appName string, stepMS int64) *WindowCache {
	return &WindowCache{appName: appName, stepMS: stepMS}
}

// Advance assembles the window [start, end) with DatasetFromDB.
func (c *WindowCache) Advance(db tsdb.ReadStore, start, end int64) (*Dataset, AdvanceStats, error) {
	ds, err := DatasetFromDB(db, c.appName, c.stepMS, start, end)
	return ds, AdvanceStats{}, err
}
