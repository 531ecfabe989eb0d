// Package metrics provides the registry that simulated components export
// their telemetry through, and the Telegraf-like collector that scrapes
// registries into the tsdb store. Together they form the monitoring
// plane whose overhead Sieve reduces (Table 3): the collector can scrape
// either the full metric population or a reduced allowlist.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Reading is one metric's current value.
type Reading struct {
	// Component and Metric identify the series.
	Component, Metric string
	// Counter is true for a monotonically accumulating metric (the
	// paper's canonical non-stationary series), false for a gauge that
	// holds an instantaneous value.
	Counter bool
	// Value is the current value.
	Value float64
}

// Registry holds the metrics of one component as one row per metric,
// kept in name order: a row is inserted at its sorted place when the
// metric is first written, so a scrape copies the rows without sorting.
// A metric keeps the kind of its first write; writing it as the other
// kind is a programming error and panics.
type Registry struct {
	mu        sync.Mutex
	component string
	rows      []Reading
	index     map[string]int
}

// NewRegistry creates an empty registry for the named component.
func NewRegistry(component string) *Registry {
	return &Registry{component: component, index: map[string]int{}}
}

// Set stores a gauge's current value, creating the gauge on first use.
func (r *Registry) Set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.row(name, false).Value = v
}

// Add adds a non-negative delta to a counter, creating the counter on
// first use; negative deltas are ignored to preserve monotonicity.
func (r *Registry) Add(name string, delta float64) {
	if delta < 0 {
		delta = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.row(name, true).Value += delta
}

// row returns name's row, inserting a zero row of the given kind at its
// sorted place on first use. The caller holds mu.
func (r *Registry) row(name string, counter bool) *Reading {
	i, ok := r.index[name]
	if !ok {
		i = sort.Search(len(r.rows), func(j int) bool { return r.rows[j].Metric >= name })
		r.rows = slices.Insert(r.rows, i, Reading{Component: r.component, Metric: name, Counter: counter})
		for j := i; j < len(r.rows); j++ {
			r.index[r.rows[j].Metric] = j
		}
	}
	rd := &r.rows[i]
	if rd.Counter != counter {
		panic(fmt.Sprintf("metrics: %s/%s has Counter %t, written with Counter %t", r.component, name, rd.Counter, counter))
	}
	return rd
}

// Read returns a metric's current reading without creating it; ok is
// false when the name has never been written.
func (r *Registry) Read(name string) (Reading, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.index[name]
	if !ok {
		return Reading{}, false
	}
	return r.rows[i], true
}

// Snapshot returns a copy of every reading, in metric-name order.
func (r *Registry) Snapshot() []Reading {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.rows)
}
