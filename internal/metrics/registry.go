// Package metrics provides the metric registry that simulated components
// export their telemetry through, and the Telegraf-like collector that
// scrapes registries into the tsdb store. Together they form the
// monitoring plane whose overhead Sieve reduces (Table 3): the collector
// can scrape either the full metric population or a reduced allowlist.
package metrics

import (
	"fmt"
	"sort"
	"sync"
)

// Kind distinguishes metric semantics.
type Kind int

// Metric kinds. Counters accumulate monotonically (the paper's canonical
// non-stationary series); gauges hold instantaneous values.
const (
	// KindGauge is an instantaneous value.
	KindGauge Kind = iota + 1
	// KindCounter is a monotonically accumulating value.
	KindCounter
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindCounter:
		return "counter"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Gauge is a settable instantaneous metric. The zero value is unusable;
// obtain gauges from a Registry.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores the current value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Counter is a monotonically increasing metric.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Inc adds a non-negative delta; negative deltas are ignored to preserve
// monotonicity.
func (c *Counter) Inc(delta float64) {
	if delta < 0 {
		return
	}
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Value returns the accumulated value.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

type entry struct {
	kind    Kind
	gauge   *Gauge
	counter *Counter
}

// Registry holds the metrics of one component.
type Registry struct {
	component string

	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry creates an empty registry for the named component.
func NewRegistry(component string) *Registry {
	return &Registry{component: component, entries: map[string]*entry{}}
}

// Component returns the owning component's name.
func (r *Registry) Component() string { return r.component }

// Gauge returns the gauge with the given name, creating it on first use.
// It panics if the name is already registered as a counter (a programming
// error).
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		e = &entry{kind: KindGauge, gauge: &Gauge{}}
		r.entries[name] = e
	}
	if e.kind != KindGauge {
		panic(fmt.Sprintf("metrics: %s/%s registered as %v, requested as gauge", r.component, name, e.kind))
	}
	return e.gauge
}

// Counter returns the counter with the given name, creating it on first
// use. It panics if the name is already registered as a gauge.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		e = &entry{kind: KindCounter, counter: &Counter{}}
		r.entries[name] = e
	}
	if e.kind != KindCounter {
		panic(fmt.Sprintf("metrics: %s/%s registered as %v, requested as counter", r.component, name, e.kind))
	}
	return e.counter
}

// Names returns the registered metric names in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Read returns a metric's current value and kind without creating it;
// ok is false when the name is unregistered.
func (r *Registry) Read(name string) (value float64, kind Kind, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, found := r.entries[name]
	if !found {
		return 0, 0, false
	}
	switch e.kind {
	case KindGauge:
		return e.gauge.Value(), KindGauge, true
	case KindCounter:
		return e.counter.Value(), KindCounter, true
	default:
		return 0, 0, false
	}
}

// Reading is one scraped metric value.
type Reading struct {
	// Component and Metric identify the series.
	Component, Metric string
	// Kind is the metric's semantics.
	Kind Kind
	// Value is the value at scrape time.
	Value float64
}

// Snapshot reads every metric, sorted by name.
func (r *Registry) Snapshot() []Reading {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Reading, 0, len(r.entries))
	for name, e := range r.entries {
		v := 0.0
		switch e.kind {
		case KindGauge:
			v = e.gauge.Value()
		case KindCounter:
			v = e.counter.Value()
		}
		out = append(out, Reading{Component: r.component, Metric: name, Kind: e.kind, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Metric < out[j].Metric })
	return out
}
