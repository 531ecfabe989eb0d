package core

import (
	"fmt"
	"math"
	"strings"

	"github.com/sieve-microservices/sieve/internal/timeseries"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// WindowCache is the one dataset accumulator: it keeps a ring buffer of
// per-series bucket state (sum and observation count per grid slot) and
// streams store points into it with one matcher scan (scan). The first
// Advance scans the whole window — that is all DatasetFromDB is, a fresh
// cache's first Advance. When a later window slides forward on the same
// grid, Advance rolls every ring forward, evicts the expired head buckets
// and scans just the new tail [prevEnd, newEnd) instead of re-querying
// and re-bucketing the whole window.
//
// Equivalence contract: the Dataset returned by Advance is bit-identical
// to resampling each series' raw query result over the same window
// (timeseries.Resample), provided no point inside the already-cached
// region was written after that region was scanned. Each bucket's sum
// accumulates its points in store order across tail scans — the same
// order a single full-window scan would deliver them — and the gap fill
// runs from scratch on the assembled buckets every cycle, so sliding the
// window cannot perturb a single bit relative to a first Advance. The
// cache cannot see a write behind its end; its owner can
// (tsdb.Sharded.TakeLowWater) and calls Invalidate when one landed.
//
// Incremental reuse requires the new window to stay on the cached grid:
// same step, same width, and a forward slide by a whole number of steps.
// Any other shape (first cycle, width change, backward jump, slide past
// the whole overlap) falls back to the full-rebuild path, which empties
// the rings and scans the whole window into them. A WindowCache is not
// safe for concurrent use; the online driver serializes cycles.
type WindowCache struct {
	appName string
	stepMS  int64

	valid bool
	// built records that a rebuild has succeeded at least once, so a
	// later !valid cache is reported as dropped rather than new.
	built      bool
	start, end int64
	buckets    int
	series     map[string]*seriesRing
}

// seriesRing is one series' bucket state over the current window: slot
// (head+i) % len holds window bucket i.
type seriesRing struct {
	component, metric string
	sums              []float64
	counts            []int
	head              int
}

// AdvanceStats reports what one Advance call did, for RunInfo and /stats.
type AdvanceStats struct {
	// FullRebuild is true when the whole window was re-queried;
	// RebuildReason says why ("" on an incremental advance).
	FullRebuild   bool   `json:"full_rebuild"`
	RebuildReason string `json:"rebuild_reason,omitempty"`
	// TailQueries and FullQueries count store matcher queries issued
	// (an incremental advance is exactly one tail query; an unchanged
	// window is zero).
	TailQueries int `json:"tail_queries"`
	FullQueries int `json:"full_queries"`
	// RolledBuckets is how many grid slots the window slid forward.
	RolledBuckets int `json:"rolled_buckets"`
	// SeriesBorn counts series that first appeared in the tail,
	// SeriesDied series whose last cached point expired out of the
	// window, CachedSeries the ring count after the advance.
	SeriesBorn   int `json:"series_born"`
	SeriesDied   int `json:"series_died"`
	CachedSeries int `json:"cached_series"`
}

// NewWindowCache creates an empty cache; the first Advance is always a
// full rebuild.
func NewWindowCache(appName string, stepMS int64) *WindowCache {
	return &WindowCache{appName: appName, stepMS: stepMS}
}

// Invalidate drops all cached state, forcing the next Advance down the
// full-rebuild path (the online driver calls it when a write landed
// behind the cached end).
func (c *WindowCache) Invalidate() {
	c.valid = false
	c.series = nil
}

// Advance slides the cache to the window [start, end) and returns the
// assembled Dataset (without a call graph), bit-identical to a fresh
// cache's first Advance over the same window under the contract
// documented on WindowCache.
func (c *WindowCache) Advance(db tsdb.ReadStore, start, end int64) (*Dataset, AdvanceStats, error) {
	var st AdvanceStats
	if c.stepMS <= 0 {
		return nil, st, fmt.Errorf("core: dataset assembly has non-positive step %d", c.stepMS)
	}
	if end <= start {
		return nil, st, fmt.Errorf("core: empty capture window [%d,%d)", start, end)
	}
	if reason := c.rollable(start, end); reason != "" {
		st.FullRebuild, st.RebuildReason = true, reason
		st.FullQueries = 1
		ds, err := c.rebuild(db, start, end)
		st.CachedSeries = len(c.series)
		return ds, st, err
	}

	d := int((start - c.start) / c.stepMS)
	st.RolledBuckets = d
	if d > 0 {
		for _, r := range c.series {
			r.roll(d)
		}
		// One matcher scan for the new tail only. [c.end, end) starts on a
		// bucket boundary of the new window (the slide is a whole number of
		// steps and the width is unchanged), so every tail point lands in
		// one of the d freshly-zeroed slots — or tops up the last partial
		// bucket — in the same store order a full-window scan would have
		// delivered it.
		c.start = start
		st.TailQueries = 1
		born, err := c.scan(db, end)
		if err != nil {
			c.Invalidate()
			return nil, st, fmt.Errorf("core: matcher scan over tail: %w", err)
		}
		st.SeriesBorn = born
		// Death: every cached point expired and nothing arrived.
		for key, r := range c.series {
			if r.empty() {
				delete(c.series, key)
				st.SeriesDied++
			}
		}
	}

	ds, err := c.assemble()
	st.CachedSeries = len(c.series)
	if err != nil {
		return nil, st, err
	}
	return ds, st, nil
}

// rollable reports whether the cached rings can slide to [start, end),
// returning "" when they can and the rebuild reason when they cannot.
func (c *WindowCache) rollable(start, end int64) string {
	switch {
	case !c.valid && c.built:
		return "invalidated"
	case !c.valid:
		return "first cycle"
	case end-start != c.end-c.start:
		return "window width changed"
	case start < c.start:
		return "window moved backwards"
	case (start-c.start)%c.stepMS != 0:
		return "window left the cached grid"
	case start >= c.end:
		return "window advanced past the cached overlap"
	}
	return ""
}

// rebuild resets the rings to the empty window [start, start) and scans
// the whole of [start, end) into them.
func (c *WindowCache) rebuild(db tsdb.ReadStore, start, end int64) (*Dataset, error) {
	c.valid = false
	c.start, c.end = start, start
	c.buckets = timeseries.GridBuckets(start, end, c.stepMS)
	c.series = map[string]*seriesRing{}
	if _, err := c.scan(db, end); err != nil {
		return nil, fmt.Errorf("core: matcher scan over window: %w", err)
	}
	ds, err := c.assemble()
	if err != nil {
		return nil, err
	}
	c.valid, c.built = true, true
	return ds, nil
}

// scan is the cache's one accumulator: it streams [c.end, end) straight
// into the rings of the window [c.start, end) — no []Point or
// SeriesResult materializes between the store and the bucket state —
// moves c.end to end, and returns how many series it added. A series'
// ring is created on its first streamed point; every timestamp sits at
// or past c.end, so a series with no ring had no usable point in
// [c.start, c.end) and an empty head is exact. Different series may be
// visited concurrently, but slot i is written only by series i's
// (single) visiting goroutine, so the lazy creation is race-free. One
// series' points arrive in the canonical storage order a raw query
// stably sorts, so every bucket is bit-identical to Resample's. A new
// ring that got no usable point (all NaN) is dropped: the reference
// skips it too.
func (c *WindowCache) scan(db tsdb.ReadStore, end int64) (int, error) {
	var (
		keys  []string
		rings []*seriesRing
		born  []bool
	)
	err := db.ScanMatch("*", "*", c.end, end, func(ks []string) {
		keys = ks
		rings = make([]*seriesRing, len(ks))
		born = make([]bool, len(ks))
		for i, k := range ks {
			rings[i] = c.series[k]
		}
	}, func(i int, t int64, v float64) {
		r := rings[i]
		if r == nil {
			comp, met := splitStoreKey(keys[i])
			r = newSeriesRing(comp, met, c.buckets)
			rings[i] = r
			born[i] = true
		}
		r.addPoint(t, v, c.start, c.stepMS)
	})
	if err != nil {
		return 0, err
	}
	added := 0
	for i, b := range born {
		if b && !rings[i].empty() {
			c.series[keys[i]] = rings[i]
			added++
		}
	}
	c.end = end
	return added, nil
}

// assemble builds the Dataset for the current window from the rings. The
// per-series grid goes through the same timeseries.FromBuckets call as
// Resample, so reconstruction of empty buckets is identical to batch.
func (c *WindowCache) assemble() (*Dataset, error) {
	ds := &Dataset{
		App:    c.appName,
		StepMS: c.stepMS,
		Start:  c.start,
		End:    c.end,
		Series: map[string]map[string]*timeseries.Regular{},
	}
	sums := make([]float64, c.buckets)
	counts := make([]int, c.buckets)
	for _, r := range c.series {
		r.snapshot(sums, counts)
		reg, err := timeseries.FromBuckets(r.metric, c.start, c.stepMS, sums, counts)
		if err != nil {
			continue // no usable points in the window: skipped, not fatal
		}
		if ds.Series[r.component] == nil {
			ds.Series[r.component] = map[string]*timeseries.Regular{}
		}
		ds.Series[r.component][r.metric] = reg
	}
	if len(ds.Series) == 0 {
		return nil, ErrNoSeries
	}
	return ds, nil
}

func newSeriesRing(component, metric string, buckets int) *seriesRing {
	return &seriesRing{
		component: component,
		metric:    metric,
		sums:      make([]float64, buckets),
		counts:    make([]int, buckets),
	}
}

// roll slides the ring forward by d buckets: the head advances and the d
// slots that now form the window's tail are zeroed.
func (r *seriesRing) roll(d int) {
	n := len(r.sums)
	if d >= n {
		d = n
	}
	for i := 0; i < d; i++ {
		slot := (r.head + i) % n
		r.sums[slot], r.counts[slot] = 0, 0
	}
	r.head = (r.head + d) % n
}

// addPoint buckets one raw point into the ring, mirroring Resample's
// accumulation exactly (NaN and out-of-window points skipped, sum += in
// delivery order). The t < start guard must precede the index
// computation: truncation-toward-zero division would otherwise map
// (start-stepMS, start) onto bucket 0.
func (r *seriesRing) addPoint(t int64, v float64, start, stepMS int64) {
	if t < start || math.IsNaN(v) {
		return
	}
	i := int((t - start) / stepMS)
	n := len(r.sums)
	if i >= n {
		return
	}
	slot := (r.head + i) % n
	r.sums[slot] += v
	r.counts[slot]++
}

// empty reports whether no bucket holds an observation.
func (r *seriesRing) empty() bool {
	for _, c := range r.counts {
		if c > 0 {
			return false
		}
	}
	return true
}

// snapshot copies the ring into window order (bucket 0 first).
func (r *seriesRing) snapshot(sums []float64, counts []int) {
	k := copy(sums, r.sums[r.head:])
	copy(sums[k:], r.sums[:r.head])
	k = copy(counts, r.counts[r.head:])
	copy(counts[k:], r.counts[:r.head])
}

// Window returns the currently cached window ([0,0) before the first
// successful Advance).
func (c *WindowCache) Window() (start, end int64) {
	if !c.valid {
		return 0, 0
	}
	return c.start, c.end
}

// AlignWindowEnd returns the exclusive end of the last grid step fully
// completed by maxTime — i.e. aligned DOWN, so a point at a
// grid-aligned maxTime itself sits just past the returned end and only
// enters the window once its step completes. The online driver uses it
// so consecutive incremental windows slide by whole steps. It returns 0
// when not even one full step has completed.
func AlignWindowEnd(maxTime, stepMS int64) int64 {
	if stepMS <= 0 {
		return maxTime + 1
	}
	return (maxTime + 1) / stepMS * stepMS
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
