package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/timeseries"
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

// DatasetFromDB reads every series in the store — any tsdb.ReadStore,
// including the sharded server store — resamples it onto the given grid,
// and assembles a Dataset (without a call graph). Nothing is kept between
// calls: the online driver calls it afresh every cycle.
//
// It is one raw QueryRange over [start, end), then timeseries.Resample per
// returned series (a series with no usable point in the window is
// skipped). Series of tsdb.ReservedComponent are skipped too: self-
// telemetry is queryable over HTTP but never analysed, so artifacts stay
// byte-identical with self-scrape on or off (app.New refuses that
// component name).
func DatasetFromDB(db tsdb.ReadStore, appName string, stepMS, start, end int64) (*Dataset, error) {
	if stepMS <= 0 {
		return nil, fmt.Errorf("core: dataset assembly has non-positive step %d", stepMS)
	}
	if end <= start {
		return nil, fmt.Errorf("core: empty capture window [%d,%d)", start, end)
	}
	results, err := db.QueryRange(context.Background(), tsdb.RangeQuery{Component: "*", Metric: "*", From: start, To: end})
	if err != nil {
		return nil, fmt.Errorf("core: reading window: %w", err)
	}
	ds := &Dataset{
		App:    appName,
		StepMS: stepMS,
		Start:  start,
		End:    end,
		Series: map[string]map[string]*timeseries.Regular{},
	}
	for _, res := range results {
		if res.Component == tsdb.ReservedComponent {
			continue
		}
		reg, err := timeseries.Resample(res.Metric, res.Points, start, end, stepMS)
		if err != nil {
			continue // no usable points in the window: skipped, not fatal
		}
		if ds.Series[res.Component] == nil {
			ds.Series[res.Component] = map[string]*timeseries.Regular{}
		}
		ds.Series[res.Component][res.Metric] = reg
	}
	if len(ds.Series) == 0 {
		return nil, ErrNoSeries
	}
	return ds, nil
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
