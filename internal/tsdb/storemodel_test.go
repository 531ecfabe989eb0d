package tsdb

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// storeModel is the one reference every store test is checked against:
// a map from series to samples in arrival order, each tagged with the
// checkpoint epoch that sealed it into a block. It states the store's
// rules once (docs/ARCHITECTURE.md, "Testing the store"):
//
//   - duplicates are kept and out-of-order writes are accepted;
//   - a raw read is a stable sort by T of the arrival order;
//   - every aggregation folds the storage order: blocks by epoch, each
//     epoch stably sorted by T, then memory, which is arrival order with
//     every full blockSize run of a series stably sorted when it seals;
//   - retention is block-granular against AppMaxTime - R, where
//     AppMaxTime is the newest timestamp outside ReservedComponent (a
//     process-time stamp ahead of it ages nothing), and a merged block
//     ages as one unit;
//   - an open at a shard count other than the previous life's seals what
//     the WAL replayed into a block before the first write.
//
// It never looks inside a store; the checks read only through exported
// calls.
type storeModel struct {
	retentionMS int64
	series      map[string][]modelSample
	blocks      []modelBlock
	epoch       int                      // the last checkpoint epoch issued
	shards      int                      // the last life's shard count, 0 before the first open
	ordered     map[string][]modelSample // storage order by series, until the next change
}

// modelSample is one held sample; epoch 0 means it is still in memory.
type modelSample struct {
	Point
	epoch int
}

// modelBlock is one published block: the checkpoint epochs it covers
// (one for a checkpoint, a run for a merge) and its newest timestamp.
type modelBlock struct {
	first, last int
	maxT        int64
}

func newStoreModel(retentionMS int64) *storeModel {
	return &storeModel{retentionMS: retentionMS, series: map[string][]modelSample{}}
}

func (m *storeModel) add(samples []Sample) {
	m.ordered = nil
	for _, s := range samples {
		k := s.Key()
		m.series[k] = append(m.series[k], modelSample{Point: Point{T: s.T, V: s.V}})
	}
}

// checkpoint seals everything in memory into one block, then enforces
// retention (a checkpoint with nothing to seal still does).
func (m *storeModel) checkpoint() {
	b := modelBlock{first: m.epoch + 1, last: m.epoch + 1, maxT: math.MinInt64}
	for _, ss := range m.series {
		for i := range ss {
			if ss[i].epoch == 0 {
				ss[i].epoch = b.first
				b.maxT = max(b.maxT, ss[i].T)
			}
		}
	}
	if b.maxT != math.MinInt64 {
		m.ordered = nil
		m.epoch++
		m.blocks = append(m.blocks, b)
	}
	m.enforceRetention()
}

// compact merges every block into one: every block a test builds is far
// below compactMaxBlockBytes, so the planner makes one run of them all.
func (m *storeModel) compact() {
	if len(m.blocks) < 2 {
		return
	}
	merged := modelBlock{first: m.blocks[0].first, last: m.blocks[len(m.blocks)-1].last, maxT: math.MinInt64}
	for _, b := range m.blocks {
		merged.maxT = max(merged.maxT, b.maxT)
	}
	m.blocks = []modelBlock{merged}
}

// open is the store opening with n shards over what the last life left:
// memory is what its WAL replays.
func (m *storeModel) open(n int) {
	if m.shards != 0 && m.shards != n {
		m.checkpoint()
	}
	m.shards = n
	m.enforceRetention()
}

// enforceRetention drops every block whose newest point is behind the
// horizon, with all the samples it holds.
func (m *storeModel) enforceRetention() {
	if m.retentionMS <= 0 {
		return
	}
	horizon := m.appMaxTime() - m.retentionMS
	kept := m.blocks[:0]
	dropped := map[int]bool{}
	for _, b := range m.blocks {
		if b.maxT >= horizon {
			kept = append(kept, b)
			continue
		}
		for e := b.first; e <= b.last; e++ {
			dropped[e] = true
		}
	}
	m.blocks = kept
	if len(dropped) == 0 {
		return
	}
	m.ordered = nil
	for k, ss := range m.series {
		out := ss[:0]
		for _, s := range ss {
			if !dropped[s.epoch] {
				out = append(out, s)
			}
		}
		if len(out) == 0 {
			delete(m.series, k)
		} else {
			m.series[k] = out
		}
	}
}

// maxTime is the store's high-water mark: the newest held timestamp,
// never below 0.
func (m *storeModel) maxTime() int64 {
	var t int64
	for _, ss := range m.series {
		for _, s := range ss {
			t = max(t, s.T)
		}
	}
	return t
}

// appMaxTime is the application high-water mark: the newest held
// timestamp outside ReservedComponent, never below 0. Retention never
// drops the block holding it, so it never decreases.
func (m *storeModel) appMaxTime() int64 {
	var t int64
	for k, ss := range m.series {
		if reservedKey(k) {
			continue
		}
		for _, s := range ss {
			t = max(t, s.T)
		}
	}
	return t
}

func (m *storeModel) points() int {
	n := 0
	for _, ss := range m.series {
		n += len(ss)
	}
	return n
}

// keys is the catalog: every series holding at least one sample, sorted.
func (m *storeModel) keys() []string {
	return sortedKeys(m.series)
}

// stream returns key's samples with T in [from, to) in storage order.
func (m *storeModel) stream(key string, from, to int64) []Point {
	var out []Point
	for _, s := range m.storageOrder(key) {
		if s.T >= from && s.T < to {
			out = append(out, s.Point)
		}
	}
	return out
}

// storageOrder returns all of key's samples in storage order.
func (m *storeModel) storageOrder(key string) []modelSample {
	if held, ok := m.ordered[key]; ok {
		return held
	}
	held := append([]modelSample(nil), m.series[key]...)
	// Blocks by epoch, each by T; memory (epoch 0) last, in arrival order.
	rank := func(s modelSample) int {
		if s.epoch == 0 {
			return math.MaxInt
		}
		return s.epoch
	}
	slices.SortStableFunc(held, func(a, b modelSample) int {
		if c := cmp.Compare(rank(a), rank(b)); c != 0 || a.epoch == 0 {
			return c
		}
		return cmp.Compare(a.T, b.T)
	})
	memory := len(held)
	for memory > 0 && held[memory-1].epoch == 0 {
		memory--
	}
	for start := memory; start+blockSize <= len(held); start += blockSize {
		run := held[start : start+blockSize]
		slices.SortStableFunc(run, func(a, b modelSample) int { return cmp.Compare(a.T, b.T) })
	}
	if m.ordered == nil {
		m.ordered = map[string][]modelSample{}
	}
	m.ordered[key] = held
	return held
}

func sortStable(pts []Point) {
	slices.SortStableFunc(pts, func(a, b Point) int { return cmp.Compare(a.T, b.T) })
}

// matchKeys is the catalog filtered by the query's globs.
func (m *storeModel) matchKeys(componentGlob, metricGlob string) []string {
	var out []string
	for _, k := range m.keys() {
		c, met := splitKey(k)
		if refMatch(componentGlob, c) && refMatch(metricGlob, met) {
			out = append(out, k)
		}
	}
	return out
}

// queryRange is what QueryRange must answer.
func (m *storeModel) queryRange(q RangeQuery) []SeriesResult {
	var out []SeriesResult
	for _, key := range m.matchKeys(q.Component, q.Metric) {
		pts := m.stream(key, q.From, q.To)
		if q.Agg == AggNone {
			sortStable(pts)
		} else {
			pts = refAggregate(pts, q)
		}
		if len(pts) > 0 {
			c, met := splitKey(key)
			out = append(out, SeriesResult{Component: c, Metric: met, Points: pts})
		}
	}
	return out
}

// refMatch is an independent glob matcher (recursive with memoization,
// unlike the engine's iterative backtracker).
func refMatch(pattern, s string) bool {
	type key struct{ pi, si int }
	memo := map[key]int{} // 0 unknown, 1 true, 2 false
	var walk func(pi, si int) bool
	walk = func(pi, si int) bool {
		k := key{pi, si}
		if v := memo[k]; v != 0 {
			return v == 1
		}
		var out bool
		switch {
		case pi == len(pattern):
			out = si == len(s)
		case pattern[pi] == '*':
			out = walk(pi+1, si) || (si < len(s) && walk(pi, si+1))
		case si < len(s) && (pattern[pi] == '?' || pattern[pi] == s[si]):
			out = walk(pi+1, si+1)
		default:
			out = false
		}
		if out {
			memo[k] = 1
		} else {
			memo[k] = 2
		}
		return out
	}
	return walk(0, 0)
}

// refAggregate buckets a storage-order point feed naively, mirroring the
// documented semantics: every fact folds in feed order, min/max by
// comparison (so a NaN that seeds a bucket stays), sum/avg by plain
// accumulation, first/last by "strictly earlier T displaces first,
// greater-or-equal T displaces last".
func refAggregate(pts []Point, q RangeQuery) []Point {
	type refBucket struct {
		count         int64
		min, max, sum float64
		firstT, lastT int64
		firstV, lastV float64
	}
	step := uint64(q.StepMS)
	buckets := map[uint64]*refBucket{}
	for _, p := range pts {
		idx := (uint64(p.T) - uint64(q.From)) / step
		b := buckets[idx]
		if b == nil {
			buckets[idx] = &refBucket{count: 1, min: p.V, max: p.V, sum: p.V, firstT: p.T, lastT: p.T, firstV: p.V, lastV: p.V}
			continue
		}
		b.count++
		b.sum += p.V
		if p.V < b.min {
			b.min = p.V
		}
		if p.V > b.max {
			b.max = p.V
		}
		if p.T < b.firstT {
			b.firstT, b.firstV = p.T, p.V
		}
		if p.T >= b.lastT {
			b.lastT, b.lastV = p.T, p.V
		}
	}
	idxs := make([]uint64, 0, len(buckets))
	for idx := range buckets {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	var out []Point
	for _, idx := range idxs {
		b := buckets[idx]
		var v float64
		switch q.Agg {
		case AggMin:
			v = b.min
		case AggMax:
			v = b.max
		case AggAvg:
			v = b.sum / float64(b.count)
		case AggSum:
			v = b.sum
		case AggCount:
			v = float64(b.count)
		case AggRate:
			if b.lastT == b.firstT {
				continue
			}
			v = (b.lastV - b.firstV) * 1000 / float64(uint64(b.lastT)-uint64(b.firstT))
		}
		out = append(out, Point{T: int64(uint64(q.From) + idx*step), V: v})
	}
	return out
}

// diffPoints compares two point lists by timestamp and float bit
// pattern (NaN defeats ==, and bit identity is the contract).
func diffPoints(got, want []Point) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d points, want %d", len(got), len(want))
	}
	for j := range got {
		g, w := got[j], want[j]
		if g.T != w.T || math.Float64bits(g.V) != math.Float64bits(w.V) {
			return fmt.Errorf("point %d: got (%d, %x), want (%d, %x)", j, g.T, math.Float64bits(g.V), w.T, math.Float64bits(w.V))
		}
	}
	return nil
}

// diffResults is diffPoints over whole result sets.
func diffResults(got, want []SeriesResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d series, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Component != want[i].Component || got[i].Metric != want[i].Metric {
			return fmt.Errorf("series %d is %s/%s, want %s/%s",
				i, got[i].Component, got[i].Metric, want[i].Component, want[i].Metric)
		}
		if err := diffPoints(got[i].Points, want[i].Points); err != nil {
			return fmt.Errorf("%s/%s: %w", got[i].Component, got[i].Metric, err)
		}
	}
	return nil
}

// assertBitIdentical fails the test unless got equals want point for
// point on the float bit pattern.
func assertBitIdentical(t *testing.T, label string, q RangeQuery, got, want []SeriesResult) {
	t.Helper()
	if err := diffResults(got, want); err != nil {
		t.Fatalf("%s %+v: %v", label, q, err)
	}
}

func engineQuery(t *testing.T, store *Sharded, q RangeQuery) []SeriesResult {
	t.Helper()
	got, err := store.QueryRange(context.Background(), q)
	if err != nil {
		t.Fatalf("QueryRange(%+v): %v", q, err)
	}
	return got
}

// queryMatch is the raw-points matcher query: QueryRange with no
// aggregation over every series matching the globs.
func queryMatch(s *Sharded, componentGlob, metricGlob string, from, to int64) ([]SeriesResult, error) {
	return s.QueryRange(context.Background(), RangeQuery{
		Component: componentGlob, Metric: metricGlob, From: from, To: to,
	})
}

// readSeries is an exact read of one series: a raw QueryRange whose globs
// are the series' own names, keeping only the result with exactly that
// key (a name holding '*' or '?' can only widen the match). A series with
// nothing in range, or that nobody wrote, reads as no points.
func readSeries(s *Sharded, component, metric string, from, to int64) ([]Point, error) {
	res, err := queryMatch(s, component, metric, from, to)
	for _, r := range res {
		if r.Component == component && r.Metric == metric {
			return r.Points, err
		}
	}
	return nil, err
}

// assertSameContents fails the test unless the store holds what the
// model does: the catalog, every series' raw points
// over all time, MaxTime and Stats().Points. Raw reads do not depend on
// checkpoint epochs, so a hand test's model needs only its writes.
func assertSameContents(t *testing.T, st *Sharded, m *storeModel, label string) {
	t.Helper()
	if gk, wk := st.catalogKeys(), m.keys(); fmt.Sprint(gk) != fmt.Sprint(wk) {
		t.Fatalf("%s: series keys %v, want %v", label, gk, wk)
	}
	q := RangeQuery{Component: "*", Metric: "*", From: math.MinInt64, To: math.MaxInt64}
	assertBitIdentical(t, label, q, engineQuery(t, st, q), m.queryRange(q))
	if got, want := st.MaxTime(), m.maxTime(); got != want {
		t.Fatalf("%s: MaxTime = %d, want %d", label, got, want)
	}
	if got, want := st.AppMaxTime(), m.appMaxTime(); got != want {
		t.Fatalf("%s: AppMaxTime = %d, want %d", label, got, want)
	}
	if got, want := st.Stats().Points, m.points(); got != want {
		t.Fatalf("%s: Stats().Points = %d, want %d", label, got, want)
	}
}
