// Package telemetry is sieved's self-observability layer: a
// dependency-free registry of counters, gauges, and fixed-bucket
// histograms whose hot-path updates are single atomic operations and
// allocate nothing (pinned by allocation tests), plus the Prometheus
// text exposition writer behind GET /metrics, the flattened Readings
// view the self-scrape loop feeds back into the TSDB, the slow-op
// trace ring behind GET /debug/traces, and the Reporter every
// background job of the store and the server reports its outcomes to.
//
// Design rules, in the order they were chosen:
//
//   - Updates must be safe on the ingest and query hot paths: Counter
//     and Histogram mutate through sync/atomic only (no mutex, no map
//     lookup, no allocation); gauges are functions read at scrape
//     time. Callers hold the instrument pointer, obtained once at
//     wiring time from a Registry.
//   - Every instrument method is nil-receiver safe and a no-op on nil.
//     That is a property of the instruments, not a mode their owners run
//     in: the store (tsdb) builds its instruments with itself and the
//     server registers its own beside them, so neither carries optional
//     instrument pointers or nil checks.
//   - Reads (exposition, self-scrape) take best-effort atomic
//     snapshots: a histogram scraped mid-update may be off by the
//     in-flight observation, which is the standard Prometheus client
//     contract.
//
// The package depends on the standard library alone.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use; nil is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the accumulated count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// DefLatencyBuckets is the default histogram bucket layout for
// operation latencies, in seconds: 10µs to 10s, roughly 1-2.5-5 per
// decade. Fsync, chunk decode, and whole pipeline cycles all land
// inside it.
var DefLatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram: cumulative-on-read per-bucket
// atomic counters plus an atomic float sum. Observe is lock-free and
// allocation-free. Obtain histograms from a Registry (the bucket slice
// is fixed at creation); nil is a no-op.
type Histogram struct {
	// bounds are the inclusive upper bounds of the finite buckets,
	// strictly ascending; an implicit +Inf bucket follows.
	bounds []float64
	// counts[i] counts observations v <= bounds[i] (and > bounds[i-1]);
	// counts[len(bounds)] is the +Inf bucket. Non-cumulative in memory,
	// accumulated at read time.
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation. Lock-free, allocation-free; no-op
// on a nil receiver. NaN observations are dropped (they would poison
// the sum and land in no meaningful bucket).
func (h *Histogram) Observe(v float64) {
	if h == nil || v != v {
		return
	}
	// Linear scan: the bucket list is short (~20) and latencies cluster
	// in the early buckets, so this beats binary search in practice and
	// keeps the loop branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start: the one-liner
// for latency call sites. No-op on a nil receiver.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot copies the per-bucket counts (non-cumulative) plus count and
// sum. Best-effort consistency: buckets are read one by one.
func (h *Histogram) snapshot(counts []uint64) (n uint64, sum float64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.count.Load(), math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation inside the target bucket, the same estimator
// Prometheus's histogram_quantile uses. Returns NaN when the histogram
// is empty (or nil); observations in the +Inf bucket clamp to the
// highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	counts := make([]uint64, len(h.counts))
	total, _ := h.snapshot(counts)
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts {
		cum += c
		if float64(cum) >= rank {
			if i == len(h.bounds) {
				// +Inf bucket: clamp like Prometheus.
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.bounds[i]
			if c == 0 {
				return upper
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lower + (upper-lower)*frac
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// metric kinds as exposition TYPE names.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// metricEntry is one registered metric.
type metricEntry struct {
	name string
	help string
	kind string
	c    *Counter
	gf   func() float64
	h    *Histogram
}

// Registry holds named metrics. Registration (Counter/GaugeFunc/...) takes
// a mutex and may allocate; it happens once at wiring time. Updates go
// through the returned instrument pointers and never touch the
// registry. Reads (WritePrometheus, Readings) are snapshot-consistent
// per instrument.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metricEntry
	names   []string // sorted, rebuilt on registration
	hooks   []func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metricEntry{}}
}

// validName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register get-or-creates an entry, panicking on a name/kind collision
// (a programming error, same contract as the component metrics
// registry).
func (r *Registry) register(name, help, kind string, make func() *metricEntry) *metricEntry {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, e.kind, kind))
		}
		return e
	}
	e := make()
	e.name, e.help, e.kind = name, help, kind
	r.metrics[name] = e
	r.names = append(r.names, name)
	sort.Strings(r.names)
	return e
}

// Counter returns the counter with the given name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, func() *metricEntry {
		return &metricEntry{c: &Counter{}}
	}).c
}

// GaugeFunc registers a gauge whose value is computed by fn at read
// time (exposition and self-scrape). fn must be safe for concurrent
// calls. Registering the same name twice panics.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.metrics[name]; ok {
		panic(fmt.Sprintf("telemetry: %s already registered", name))
	}
	r.metrics[name] = &metricEntry{name: name, help: help, kind: kindGauge, gf: fn}
	r.names = append(r.names, name)
	sort.Strings(r.names)
}

// Histogram returns the histogram with the given name, creating it on
// first use with the given finite bucket upper bounds (strictly
// ascending; nil means DefLatencyBuckets). An implicit +Inf bucket is
// always appended. Bounds are fixed at creation; a second call with
// different bounds returns the original histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, kindHistogram, func() *metricEntry {
		return &metricEntry{h: newHistogram(bounds)}
	}).h
}

// OnCollect registers a hook run (in registration order) at the start
// of every WritePrometheus and Readings call, before instruments are
// read — the place to refresh gauges that mirror external state (store
// point counts, WAL sizes) from one snapshot instead of one callback
// per gauge.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// collect runs the hooks and returns the entries in sorted-name order.
func (r *Registry) collect() []*metricEntry {
	r.mu.RLock()
	hooks := r.hooks
	entries := make([]*metricEntry, len(r.names))
	for i, n := range r.names {
		entries[i] = r.metrics[n]
	}
	r.mu.RUnlock()
	for _, fn := range hooks {
		fn()
	}
	return entries
}

// Reading is one flattened metric value, the unit the self-scrape loop
// writes into the TSDB. Histograms expand to <name>_count, <name>_sum,
// <name>_p50, and <name>_p99 (quantiles omitted while empty), so
// latency distributions become analyzable series without a bucket
// explosion.
type Reading struct {
	Name  string
	Value float64
}

// Readings runs the collect hooks and returns every metric flattened
// to (name, value) pairs in deterministic (sorted-name) order.
func (r *Registry) Readings() []Reading {
	entries := r.collect()
	out := make([]Reading, 0, len(entries)+3*8)
	for _, e := range entries {
		switch {
		case e.c != nil:
			out = append(out, Reading{e.name, float64(e.c.Value())})
		case e.gf != nil:
			out = append(out, Reading{e.name, e.gf()})
		case e.h != nil:
			n := e.h.Count()
			out = append(out, Reading{e.name + "_count", float64(n)})
			out = append(out, Reading{e.name + "_sum", e.h.Sum()})
			if n > 0 {
				out = append(out, Reading{e.name + "_p50", e.h.Quantile(0.50)})
				out = append(out, Reading{e.name + "_p99", e.h.Quantile(0.99)})
			}
		}
	}
	return out
}
