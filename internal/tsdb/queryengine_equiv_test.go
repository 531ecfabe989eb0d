package tsdb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// This file pins the query engine against a naive reference
// implementation that decodes EVERY chunk of EVERY series — no
// time-range skipping, no summary push-down, no fan-out — and against
// itself across shard counts, parallelism, and durability states. Any
// divergence (a skipped chunk that mattered, a summary merged into the
// wrong bucket, a fan-out merge reordering series) shows up as a
// byte-level mismatch.

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

// refSeriesPoints decompresses one in-memory series completely, in
// storage order (sealed chunks in seal order, then the tail).
func refSeriesPoints(t *testing.T, sr *series) []Point {
	t.Helper()
	var out []Point
	for _, c := range sr.chunks {
		pts, err := DecompressBlock(c.data)
		if err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		out = append(out, pts...)
	}
	return append(out, sr.tail...)
}

// refStorePoints returns every point of key in the store's canonical
// storage order — durable blocks by sequence, the checkpoint overlay,
// then shard memory — decompressing everything.
func refStorePoints(t *testing.T, st *Sharded, key string) []Point {
	t.Helper()
	var out []Point
	if st.dur != nil {
		for _, b := range st.dur.blocks {
			for _, ref := range b.index[key] {
				var scratch []byte // fresh per chunk: the reference shares nothing
				payload, err := b.readChunk(key, ref, &scratch)
				if err != nil {
					t.Fatalf("reference chunk read: %v", err)
				}
				pts, err := DecompressBlock(payload)
				if err != nil {
					t.Fatalf("reference decode: %v", err)
				}
				out = append(out, pts...)
			}
		}
		if sr := st.dur.flushing[key]; sr != nil {
			out = append(out, refSeriesPoints(t, sr)...)
		}
	}
	sh := st.shards[st.shardIndex(key)]
	if sr := sh.data[key]; sr != nil {
		out = append(out, refSeriesPoints(t, sr)...)
	}
	return out
}

// refAggregate buckets a storage-order point feed naively, mirroring the
// documented semantics: min/max/count are order-independent, sum/avg
// accumulate in feed order, first/last follow "strictly earlier T
// displaces first, greater-or-equal T displaces last".
func refAggregate(pts []Point, q RangeQuery) []Point {
	type refBucket struct {
		count         int64
		min, max, sum float64
		firstT, lastT int64
		firstV, lastV float64
		seen          bool
	}
	step := uint64(q.StepMS)
	buckets := map[uint64]*refBucket{}
	for _, p := range pts {
		idx := (uint64(p.T) - uint64(q.From)) / step
		b := buckets[idx]
		if b == nil {
			b = &refBucket{}
			buckets[idx] = b
		}
		if !b.seen {
			b.seen = true
			b.min, b.max = p.V, p.V
			b.firstT, b.firstV = p.T, p.V
			b.lastT, b.lastV = p.T, p.V
			b.count, b.sum = 1, p.V
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

// refQueryRange is the decode-everything reference for QueryRange.
func refQueryRange(t *testing.T, store *Sharded, q RangeQuery) []SeriesResult {
	t.Helper()
	keys := store.SeriesKeys()
	var out []SeriesResult
	for _, key := range keys {
		component, metric := splitKey(key)
		if !refMatch(q.Component, component) || !refMatch(q.Metric, metric) {
			continue
		}
		all := refStorePoints(t, store, key)
		var in []Point
		for _, p := range all {
			if p.T >= q.From && p.T < q.To {
				in = append(in, p)
			}
		}
		var pts []Point
		if q.Agg == AggNone {
			pts = append([]Point(nil), in...)
			sort.SliceStable(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
		} else {
			pts = refAggregate(in, q)
		}
		if len(pts) > 0 {
			out = append(out, SeriesResult{Component: component, Metric: metric, Points: pts})
		}
	}
	return out
}

// sameResults compares two result sets, treating nil and empty as equal.
func sameResults(a, b []SeriesResult) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func describeResults(rs []SeriesResult) string {
	total := 0
	for _, r := range rs {
		total += len(r.Points)
	}
	return fmt.Sprintf("%d series / %d points", len(rs), total)
}

// equivSamples generates a randomized scrape-like dataset: comps
// components x mets metrics, one sample per series per tick. Per-series
// timestamps strictly increase (offset per series); with jitter, ~10% of
// adjacent arrivals are swapped across the whole stream, so some series
// see out-of-order arrival that crosses seal boundaries.
func equivSamples(seed int64, comps, mets, ticks int, jitter bool) []Sample {
	rng := rand.New(rand.NewSource(seed))
	compNames := make([]string, comps)
	for c := range compNames {
		switch c % 3 {
		case 0:
			compNames[c] = fmt.Sprintf("web-%02d", c)
		case 1:
			compNames[c] = fmt.Sprintf("db-%02d", c)
		default:
			compNames[c] = fmt.Sprintf("worker%02d", c)
		}
	}
	metNames := make([]string, mets)
	for m := range metNames {
		switch m % 3 {
		case 0:
			metNames[m] = fmt.Sprintf("cpu_util_%d", m)
		case 1:
			metNames[m] = fmt.Sprintf("mem_used_%d", m)
		default:
			metNames[m] = fmt.Sprintf("net_rx_%d", m)
		}
	}
	out := make([]Sample, 0, comps*mets*ticks)
	for i := 0; i < ticks; i++ {
		for c, comp := range compNames {
			for m, met := range metNames {
				out = append(out, Sample{
					Component: comp,
					Metric:    met,
					T:         int64(i)*250 + int64((c*7+m*13)%97),
					V:         rng.NormFloat64() * 100,
				})
			}
		}
	}
	if jitter {
		for i := 0; i+1 < len(out); i += 2 {
			if rng.Intn(10) == 0 {
				out[i], out[i+1] = out[i+1], out[i]
			}
		}
	}
	return out
}

// equivQueries is the matcher/range/aggregation matrix every store state
// is checked against. span is the dataset's max timestamp.
func equivQueries(span int64) []RangeQuery {
	qs := []RangeQuery{
		{Component: "*", Metric: "*", From: 0, To: span + 1},
		{Component: "web*", Metric: "*", From: 0, To: span + 1},
		{Component: "*", Metric: "cpu*", From: span / 4, To: 3 * span / 4},
		{Component: "w?b-00", Metric: "mem_used_?", From: 0, To: span + 1},
		{Component: "db-*", Metric: "*rx*", From: span / 3, To: span/3 + 777},
		{Component: "absent-*", Metric: "*", From: 0, To: span + 1},
		{Component: "*", Metric: "*", From: span / 2, To: span / 2}, // empty range
	}
	for _, agg := range []Agg{AggMin, AggMax, AggAvg, AggSum, AggCount, AggRate} {
		qs = append(qs,
			RangeQuery{Component: "*", Metric: "*", From: 0, To: span + 1, Agg: agg, StepMS: span/16 + 1},
			RangeQuery{Component: "web*", Metric: "cpu*", From: 123, To: span - 321, Agg: agg, StepMS: 997},
			RangeQuery{Component: "*", Metric: "*", From: 0, To: span + 1, Agg: agg, StepMS: 2 * span}, // one bucket
		)
	}
	return qs
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

// TestQueryEngineEquivalenceInMemory checks engine vs reference on
// in-memory stores at shard counts {1, 4, GOMAXPROCS} and fan-out worker
// counts {GOMAXPROCS, 1, 4} (pinned through runtime.GOMAXPROCS, the
// fan-out's only size), on both a fully ordered and an out-of-order
// dataset. All stores must agree with their own
// reference AND with each other byte for byte.
func TestQueryEngineEquivalenceInMemory(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, jitter := range []bool{false, true} {
		name := "ordered"
		if jitter {
			name = "jittered"
		}
		t.Run(name, func(t *testing.T) {
			samples := equivSamples(42, 5, 4, 1500, jitter)
			var span int64
			for _, s := range samples {
				if s.T > span {
					span = s.T
				}
			}
			stores := map[string]*Sharded{
				"shards=1":  NewSharded(1),
				"shards=4":  NewSharded(4),
				"shards=np": NewSharded(procs),
			}
			order := []string{"shards=1", "shards=4", "shards=np"}
			for _, st := range stores {
				if err := st.WriteSamples(samples, 0); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range equivQueries(span) {
				var base []SeriesResult
				for i, name := range order {
					st := stores[name]
					ref := refQueryRange(t, st, q)
					for pi, par := range []int{procs, 1, 4} {
						runtime.GOMAXPROCS(par)
						got := engineQuery(t, st, q)
						if !sameResults(got, ref) {
							t.Fatalf("%s par=%d %+v: engine %s != reference %s",
								name, par, q, describeResults(got), describeResults(ref))
						}
						if i == 0 && pi == 0 {
							base = got
						} else if !sameResults(got, base) {
							t.Fatalf("%s par=%d %+v: differs from %s baseline", name, par, q, order[0])
						}
					}
				}
			}
		})
	}
}

// TestQueryEngineEquivalenceDurable checks engine vs reference on a
// durable store through its lifecycle — mixed blocks+memory, then
// checkpointed, closed, and reopened (all data in sealed blocks) at
// shard counts {1, 4, GOMAXPROCS} — and pins every state byte-identical
// to an in-memory twin holding the same samples (the dataset is ordered,
// so even sum/avg rounding must survive the block rewrite).
func TestQueryEngineEquivalenceDurable(t *testing.T) {
	samples := equivSamples(7, 4, 3, 1200, false)
	var span int64
	for _, s := range samples {
		if s.T > span {
			span = s.T
		}
	}
	twin := NewSharded(4)
	if err := twin.WriteSamples(samples, 0); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s, err := OpenSharded(4, DurabilityOptions{Dir: dir, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	half := len(samples) / 2
	if err := s.WriteSamples(samples[:half], 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSamples(samples[half:], 0); err != nil {
		t.Fatal(err)
	}

	check := func(label string, st *Sharded) {
		t.Helper()
		for _, q := range equivQueries(span) {
			got := engineQuery(t, st, q)
			if ref := refQueryRange(t, st, q); !sameResults(got, ref) {
				t.Fatalf("%s %+v: engine %s != reference %s", label, q, describeResults(got), describeResults(ref))
			}
			if want := engineQuery(t, twin, q); !sameResults(got, want) {
				t.Fatalf("%s %+v: durable %s != in-memory twin %s", label, q, describeResults(got), describeResults(want))
			}
		}
	}
	check("blocks+memory", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		re, err := OpenSharded(n, DurabilityOptions{Dir: dir, FlushInterval: -1})
		if err != nil {
			t.Fatalf("reopen with %d shards: %v", n, err)
		}
		check(fmt.Sprintf("reopened shards=%d", n), re)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryEngineEquivalenceJitteredDurable runs the same-store
// engine-vs-reference comparison on a durable store fed out-of-order
// arrivals (chunks with overlapping time ranges on both the memory and
// block sides), where skip decisions are easiest to get wrong.
func TestQueryEngineEquivalenceJitteredDurable(t *testing.T) {
	samples := equivSamples(99, 3, 3, 1000, true)
	var span int64
	for _, s := range samples {
		if s.T > span {
			span = s.T
		}
	}
	dir := t.TempDir()
	s, err := OpenSharded(3, DurabilityOptions{Dir: dir, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	third := len(samples) / 3
	if err := s.WriteSamples(samples[:third], 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSamples(samples[third:2*third], 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSamples(samples[2*third:], 0); err != nil {
		t.Fatal(err)
	}
	for _, q := range equivQueries(span) {
		got := engineQuery(t, s, q)
		if ref := refQueryRange(t, s, q); !sameResults(got, ref) {
			t.Fatalf("%+v: engine %s != reference %s", q, describeResults(got), describeResults(ref))
		}
	}
}

// sameResultBits is sameResults with values compared by bit pattern, so
// NaN answers compare equal to themselves.
func sameResultBits(a, b []SeriesResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Component != b[i].Component || a[i].Metric != b[i].Metric || len(a[i].Points) != len(b[i].Points) {
			return false
		}
		for j, p := range a[i].Points {
			q := b[i].Points[j]
			if p.T != q.T || math.Float64bits(p.V) != math.Float64bits(q.V) {
				return false
			}
		}
	}
	return true
}

// TestQueryEngineOutOfOrderAggregation pins the aggregator's slice-backed
// buckets where storage order is not time order, so buckets open behind
// the tail and the scan falls back to its index: a late write behind the
// tail after a checkpoint, a reverse-order backfill split across a
// checkpoint, duplicate timestamps on and around bucket edges, and
// NaN-bearing chunks (never summarized) landing behind the tail. Every
// aggregation at every step is compared with the naive reference at
// shards {1, 4} and GOMAXPROCS {1, machine}.
func TestQueryEngineOutOfOrderAggregation(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	const n = 2000 // points per series before the checkpoint
	var before, after []Sample
	for i := 0; i < n; i++ {
		before = append(before, Sample{Component: "late", Metric: "m", T: int64(i) * 10, V: float64(i % 37)})
		// The backfill arrives newest first: the blocks get the high half,
		// memory the low half, each stored in descending chunks.
		before = append(before, Sample{Component: "back", Metric: "m", T: int64(2*n-1-i) * 10, V: float64(i) * 0.25})
		after = append(after, Sample{Component: "back", Metric: "m", T: int64(n-1-i) * 10, V: float64(i) * 0.5})
	}
	for i := 100; i < 600; i += 7 {
		after = append(after, Sample{Component: "late", Metric: "m", T: int64(i)*10 + 5, V: -float64(i)})
	}
	after = append(after, Sample{Component: "late", Metric: "m", T: n * 10, V: 1})
	for k := int64(0); k < 200; k++ {
		for r := 0; r < 3; r++ {
			s := Sample{Component: "dup", Metric: "m", T: k * 100, V: float64(k*3) + float64(r)}
			edge := Sample{Component: "dup", Metric: "m", T: k*100 + 99, V: float64(r) - float64(k)}
			if r == 2 {
				after = append(after, s, edge)
			} else {
				before = append(before, s, edge)
			}
		}
	}
	for i := 0; i < 2*blockSize; i++ {
		v := float64(i % 11)
		if i%blockSize == 3 {
			v = math.NaN()
		}
		// One NaN chunk in order before the checkpoint, one behind the tail
		// after it.
		before = append(before, Sample{Component: "nan", Metric: "m", T: int64(blockSize+i) * 20, V: v})
		if i < blockSize {
			after = append(after, Sample{Component: "nan", Metric: "m", T: int64(i)*20 + 1, V: v})
		}
	}
	const span = 2 * n * 10
	for _, shards := range []int{1, 4} {
		s, err := OpenSharded(shards, DurabilityOptions{Dir: t.TempDir(), FlushInterval: -1, CompactInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSamples(before, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSamples(after, 0); err != nil {
			t.Fatal(err)
		}
		s.Flush() // seal the late chunks so summaries are offered out of order
		for _, agg := range []Agg{AggMin, AggMax, AggAvg, AggSum, AggCount, AggRate} {
			for _, step := range []int64{1, 100, 997, 20 * blockSize, 2 * span} {
				for _, from := range []int64{0, 50} {
					q := RangeQuery{Component: "*", Metric: "*", From: from, To: span, Agg: agg, StepMS: step}
					ref := refQueryRange(t, s, q)
					for _, par := range []int{1, procs} {
						runtime.GOMAXPROCS(par)
						if got := engineQuery(t, s, q); !sameResultBits(got, ref) {
							t.Fatalf("shards=%d par=%d %+v: engine %s != reference %s",
								shards, par, q, describeResults(got), describeResults(ref))
						}
					}
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAggregatorIndexBuiltOnlyBehindTheTail pins when the aggregator
// pays for its bucket index: a scan in time order never builds it and,
// on warm scratch, allocates nothing at all; a scan that lands behind
// the tail builds it once — one late point and a late point in every
// bucket cost the same allocations — and both answer as the reference
// does.
func TestAggregatorIndexBuiltOnlyBehindTheTail(t *testing.T) {
	const buckets, perBucket, step = 256, 4, 100
	var inOrder []Point
	for i := 0; i < buckets*perBucket; i++ {
		inOrder = append(inOrder, Point{T: int64(i) * step / perBucket, V: float64(i % 13)})
	}
	oneLate := append(append([]Point(nil), inOrder...), Point{T: 1, V: -1})
	allLate := append([]Point(nil), inOrder...)
	for b := buckets - 1; b >= 0; b-- {
		allLate = append(allLate, Point{T: int64(b)*step + 1, V: float64(-b)})
	}
	var a aggregator
	for _, agg := range []Agg{AggMin, AggAvg, AggRate} {
		q := RangeQuery{From: 0, To: buckets * step, Agg: agg, StepMS: step}
		var out []Point
		scan := func(pts []Point) {
			a.reset(q)
			for _, p := range pts {
				a.add(p)
			}
			out = a.points(out[:0])
		}
		allocs := map[string]float64{}
		for _, c := range []struct {
			name    string
			pts     []Point
			indexed bool
		}{{"in-order", inOrder, false}, {"one-late", oneLate, true}, {"all-late", allLate, true}} {
			scan(c.pts)
			if (a.index != nil) != c.indexed {
				t.Fatalf("%v %s: index built = %v, want %v", agg, c.name, a.index != nil, c.indexed)
			}
			if want := refAggregate(c.pts, q); !reflect.DeepEqual(out, want) {
				t.Fatalf("%v %s: got %v, want %v", agg, c.name, out, want)
			}
			allocs[c.name] = testing.AllocsPerRun(20, func() { scan(c.pts) })
		}
		if allocs["in-order"] != 0 {
			t.Errorf("%v: in-order scan on warm scratch allocates %v times", agg, allocs["in-order"])
		}
		if allocs["one-late"] == 0 || allocs["all-late"] != allocs["one-late"] {
			t.Errorf("%v: one late point costs %v allocs, one per bucket %v: want the same non-zero index build",
				agg, allocs["one-late"], allocs["all-late"])
		}
	}
}
