package tsdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func TestMatchGlob(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"*", "", true},
		{"*", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"web", "web", true},
		{"web", "webs", false},
		{"web*", "web-01", true},
		{"*01", "web-01", true},
		{"w?b", "web", true},
		{"w?b", "wb", false},
		{"*cpu*", "total_cpu_util", true},
		{"*cpu*", "memory", false},
		{"a*b*c", "axxbxxc", true},
		{"a*b*c", "axxcxxb", false},
		{"**", "x", true},
		{"*?*", "", false},
		{"*?*", "x", true},
		// Backtracking: the first '*' must be able to re-expand.
		{"*ab", "aab", true},
		{"*aab*", "aaab", true},
	}
	for _, c := range cases {
		if got := matchGlob(c.pattern, c.s); got != c.want {
			t.Errorf("matchGlob(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

func TestParseRangeQuery(t *testing.T) {
	q, err := ParseRangeQuery("", "", "", "", "", "", 500)
	if err != nil {
		t.Fatal(err)
	}
	if q.Component != "*" || q.Metric != "*" || q.From != 0 || q.To != 500 || q.Agg != AggNone || q.StepMS != 0 {
		t.Fatalf("defaults wrong: %+v", q)
	}
	q, err = ParseRangeQuery("web*", "cpu?", "100", "200", "avg", "50", 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Component != "web*" || q.From != 100 || q.To != 200 || q.Agg != AggAvg || q.StepMS != 50 {
		t.Fatalf("parsed wrong: %+v", q)
	}

	bad := []struct {
		name                                   string
		component, metric, from, to, agg, step string
	}{
		{"inverted range", "*", "*", "10", "5", "", ""},
		{"step without agg", "*", "*", "", "", "", "100"},
		{"agg without step", "*", "*", "", "", "max", ""},
		{"agg with step=0", "*", "*", "", "", "max", "0"},
		{"agg with negative step", "*", "*", "", "", "sum", "-5"},
		{"unknown agg", "*", "*", "", "", "median", "100"},
		{"bad from", "*", "*", "abc", "", "", ""},
		{"bad to", "*", "*", "", "1e9", "", ""},
		{"bad step", "*", "*", "", "", "min", "ten"},
		{"from overflow", "*", "*", "9223372036854775808", "", "", ""},
	}
	for _, c := range bad {
		if _, err := ParseRangeQuery(c.component, c.metric, c.from, c.to, c.agg, c.step, 1000); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestAggRoundTripNames(t *testing.T) {
	for _, a := range []Agg{AggNone, AggMin, AggMax, AggAvg, AggSum, AggCount, AggRate} {
		got, err := ParseAgg(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAgg(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
}

// TestQueryEngineSkipsDisjointChunks pins the chunk-skipping fix by
// corrupting a sealed in-memory chunk outright: a query whose range is
// disjoint from the corrupt chunk must succeed (the chunk was never
// decoded — the old pointsInRange decompressed everything and would
// fail), while a query overlapping it must surface the corruption.
func TestQueryEngineSkipsDisjointChunks(t *testing.T) {
	db := NewSharded(1)
	samples := make([]Sample, 2*blockSize)
	for i := range samples {
		samples[i] = Sample{Component: "web", Metric: "cpu", T: int64(i), V: float64(i)}
	}
	if err := db.WriteSamples(samples, 0); err != nil {
		t.Fatal(err)
	}
	sr := db.shards[0].data["web/cpu"]
	if len(sr.chunks) != 2 {
		t.Fatalf("want 2 sealed chunks, got %d", len(sr.chunks))
	}
	// Truncate the second chunk's payload so any decode of it errors.
	sr.chunks[1].data = sr.chunks[1].data[:3]

	pts, err := db.Query("web", "cpu", 0, int64(blockSize))
	if err != nil {
		t.Fatalf("query disjoint from corrupt chunk: %v", err)
	}
	if len(pts) != blockSize {
		t.Fatalf("got %d points, want %d", len(pts), blockSize)
	}
	if _, err := db.Query("web", "cpu", 0, int64(blockSize)+1); err == nil {
		t.Fatal("query overlapping corrupt chunk: no error")
	}

	// Index-only aggregation push-down: a whole-chunk max needs neither
	// chunk decoded, so even the corrupt one aggregates from its summary.
	res, err := db.QueryRange(context.Background(), RangeQuery{
		Component: "web", Metric: "cpu",
		From: 0, To: 2 * int64(blockSize),
		Agg: AggMax, StepMS: 4 * int64(blockSize),
	})
	if err != nil {
		t.Fatalf("index-only aggregation over corrupt chunk: %v", err)
	}
	if len(res) != 1 || len(res[0].Points) != 1 || res[0].Points[0].V != float64(2*blockSize-1) {
		t.Fatalf("unexpected pushdown result: %+v", res)
	}
	// An aggregation that must decode (avg) does hit the corruption.
	if _, err := db.QueryRange(context.Background(), RangeQuery{
		Component: "web", Metric: "cpu",
		From: 0, To: 2 * int64(blockSize),
		Agg: AggAvg, StepMS: 4 * int64(blockSize),
	}); err == nil {
		t.Fatal("decoding aggregation over corrupt chunk: no error")
	}
}

// TestQueryEngineBlockChunkSkip does the same for a durable store's
// sealed block files: corrupt one chunk on disk and verify that queries
// and index-only aggregations not touching it still succeed.
func TestQueryEngineBlockChunkSkip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(1, DurabilityOptions{Dir: dir, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 2 * maxChunkPoints
	samples := make([]Sample, n)
	for i := range samples {
		samples[i] = Sample{Component: "web", Metric: "cpu", T: int64(i), V: float64(i % 251)}
	}
	if err := s.WriteSamples(samples, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the second chunk's payload bytes in the open chunks file.
	blk := s.dur.blocks[0]
	refs := blk.index["web/cpu"]
	if len(refs) != 2 {
		t.Fatalf("want 2 chunks in block, got %d", len(refs))
	}
	f, err := os.OpenFile(filepath.Join(blk.dir, blockChunksName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, refs[1].Offset+chunkHeader+2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := s.Query("web", "cpu", 0, int64(maxChunkPoints)); err != nil {
		t.Fatalf("query disjoint from corrupt block chunk: %v", err)
	}
	if _, err := s.Query("web", "cpu", 0, int64(n)); err == nil {
		t.Fatal("query overlapping corrupt block chunk: no error")
	}
	res, err := s.QueryRange(context.Background(), RangeQuery{
		Component: "*", Metric: "*", From: 0, To: int64(n),
		Agg: AggCount, StepMS: 4 * int64(n),
	})
	if err != nil {
		t.Fatalf("index-only count over corrupt block chunk: %v", err)
	}
	if len(res) != 1 || res[0].Points[0].V != float64(n) {
		t.Fatalf("unexpected count: %+v", res)
	}
}

// TestAggregationPushdownAllocs pins "aggregated queries over sealed
// chunks allocate no raw-point slices": an index-only aggregation's
// allocation count must not grow with the number of sealed points,
// because no chunk is ever read or decoded.
func TestAggregationPushdownAllocs(t *testing.T) {
	// One fan-out worker: the sequential path starts no goroutines, so
	// the allocation count is the query's own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	build := func(pointsPerSeries int) *Sharded {
		s := NewSharded(2)
		var samples []Sample
		for i := 0; i < pointsPerSeries; i++ {
			for c := 0; c < 4; c++ {
				samples = append(samples, Sample{
					Component: "comp" + string(rune('a'+c)), Metric: "m",
					T: int64(i) * 10, V: float64(i ^ c),
				})
			}
		}
		if err := s.WriteSamples(samples, 0); err != nil {
			t.Fatal(err)
		}
		s.Flush()
		return s
	}
	small, big := build(2*blockSize), build(16*blockSize)
	measure := func(s *Sharded, span int64) float64 {
		q := RangeQuery{Component: "*", Metric: "*", From: 0, To: span, Agg: AggMax, StepMS: 2 * span}
		return testing.AllocsPerRun(20, func() {
			if _, err := s.QueryRange(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1 := measure(small, int64(2*blockSize)*10)
	a2 := measure(big, int64(16*blockSize)*10)
	// 8x the sealed points must not change the allocation profile beyond
	// noise: every chunk is consumed from its summary.
	if a2 > a1+8 {
		t.Fatalf("index-only aggregation allocations grew with data size: %v -> %v allocs/op", a1, a2)
	}

	// Across series and buckets: the fan-out worker's scratch is reused,
	// so each extra non-empty series adds at most its answer's one copy
	// (plus the four more doublings of the matched-key list from 4 to 64
	// keys), and extra buckets add at most the scratch's amortized growth.
	wide := NewSharded(2)
	var samples []Sample
	for i := 0; i < 2*blockSize; i++ {
		for c := 0; c < 64; c++ {
			samples = append(samples, Sample{Component: fmt.Sprintf("x%02d", c), Metric: "m", T: int64(i) * 10, V: float64(i ^ c)})
		}
	}
	if err := wide.WriteSamples(samples, 0); err != nil {
		t.Fatal(err)
	}
	span := int64(2*blockSize) * 10
	count := func(component string, agg Agg, step int64) float64 {
		q := RangeQuery{Component: component, Metric: "*", From: 0, To: span, Agg: agg, StepMS: step}
		return testing.AllocsPerRun(20, func() {
			if _, err := wide.QueryRange(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, agg := range []Agg{AggNone, AggAvg, AggMax} {
		step := int64(0)
		if agg != AggNone {
			step = 40 // 256 buckets per series
		}
		four, all := count("x6?", agg, step), count("*", agg, step)
		if all-four > 60+4 {
			t.Errorf("%v: 64 series cost %v allocs/op, 4 cost %v: more than one per extra series", agg, all, four)
		}
		if agg == AggNone {
			continue
		}
		if coarse := count("*", agg, 2*span); all-coarse > 2*8+2 {
			t.Errorf("%v: 256 buckets per series cost %v allocs/op, one bucket %v: allocations grow with buckets", agg, all, coarse)
		}
	}
}

// fuzzStore is a small read-only sharded store shared by fuzz workers:
// four series, two of them long enough to span sealed chunks plus tail.
var fuzzStore struct {
	once sync.Once
	s    *Sharded
}

func fuzzQueryStore(f *testing.F) *Sharded {
	fuzzStore.once.Do(func() {
		s := NewSharded(3)
		var samples []Sample
		for i := 0; i < 1300; i++ {
			samples = append(samples,
				Sample{Component: "web-a", Metric: "cpu_util", T: int64(i) * 7, V: float64(i%97) - 48},
				Sample{Component: "db-b", Metric: "mem_used", T: int64(i)*11 + 3, V: float64(i) * 0.5},
			)
		}
		for i := 0; i < 40; i++ {
			samples = append(samples,
				Sample{Component: "web-a", Metric: "errors", T: int64(i) * 100, V: float64(i * i)},
				Sample{Component: "cache", Metric: "hit_ratio", T: int64(i)*50 + 25, V: 1 / float64(i+1)},
			)
		}
		if err := s.WriteSamples(samples, 0); err != nil {
			f.Fatal(err)
		}
		fuzzStore.s = s
	})
	return fuzzStore.s
}

// FuzzQueryRange fuzzes the /query_range parameter parsing and the
// engine's bucket math: any parameter combination either fails ParseRangeQuery
// cleanly or produces results byte-identical to the decode-everything
// reference — across glob patterns, step=0, inverted ranges, and extreme
// timestamps (the bucket index runs through unsigned arithmetic; a
// signed overflow would diverge from the reference or panic).
func FuzzQueryRange(f *testing.F) {
	f.Add("web-a", "cpu_util", "0", "10000", "avg", "500")
	f.Add("*", "*", "", "", "", "")
	f.Add("w?b*", "*u*", "-5000", "5000", "rate", "333")
	f.Add("db-*", "mem*", "100", "50", "sum", "10") // inverted
	f.Add("*", "*", "0", "9000", "max", "0")        // step=0
	f.Add("*", "*", "-9223372036854775808", "9223372036854775807", "count", "9223372036854775807")
	f.Add("***", "???", "12", "13", "min", "1")
	f.Add("", "", "9999999999999", "", "rate", "9999999999")
	store := fuzzQueryStore(f)
	f.Fuzz(func(t *testing.T, component, metric, from, to, agg, step string) {
		if len(component) > 64 || len(metric) > 64 {
			return // keep the backtracking matchers cheap
		}
		q, err := ParseRangeQuery(component, metric, from, to, agg, step, 20000)
		if err != nil {
			return
		}
		got, err := store.QueryRange(context.Background(), q)
		if err != nil {
			t.Fatalf("QueryRange(%+v): %v", q, err)
		}
		ref := refQueryRange(t, store, q)
		if !sameResults(got, ref) {
			t.Fatalf("%+v: engine %s != reference %s", q, describeResults(got), describeResults(ref))
		}
	})
}

// TestQueryEngineNaNValues pins the engine against the reference for
// NaN values (reachable only through the internal WriteSamples API —
// the line protocol rejects non-finite values): buckets seed from their
// first contribution and update by comparison, so the decode path, the
// summary push-down path, and the naive reference all agree bitwise on
// where NaN lands.
func TestQueryEngineNaNValues(t *testing.T) {
	nan := math.NaN()
	// NaN positions: seeding the first chunk's summary, seeding a later
	// chunk's summary (where a poisoned summary once hid the chunk's
	// real extrema from push-down), and mid-chunk.
	nanPositions := []int{0, blockSize, blockSize / 2}
	build := func(nanAt int) *Sharded {
		s := NewSharded(2)
		samples := make([]Sample, 2*blockSize)
		for i := range samples {
			v := float64(i % 53)
			if i == nanAt {
				v = nan
			}
			samples[i] = Sample{Component: "n", Metric: "m", T: int64(i) * 10, V: v}
		}
		if err := s.WriteSamples(samples, 0); err != nil {
			t.Fatal(err)
		}
		s.Flush() // seal everything so summary push-down is exercised
		return s
	}
	span := int64(2*blockSize) * 10
	for _, nanAt := range nanPositions {
		s := build(nanAt)
		for _, agg := range []Agg{AggMin, AggMax, AggAvg, AggSum, AggCount, AggRate} {
			for _, step := range []int64{span * 2, span / 8} { // push-down and decode widths
				q := RangeQuery{Component: "*", Metric: "*", From: 0, To: span, Agg: agg, StepMS: step}
				got := engineQuery(t, s, q)
				ref := refQueryRange(t, s, q)
				// NaN != NaN defeats DeepEqual; compare bit patterns.
				if len(got) != len(ref) {
					t.Fatalf("nanAt=%d %v step=%d: %d series vs %d", nanAt, agg, step, len(got), len(ref))
				}
				for i := range got {
					if len(got[i].Points) != len(ref[i].Points) {
						t.Fatalf("nanAt=%d %v step=%d: point counts differ", nanAt, agg, step)
					}
					for j := range got[i].Points {
						g, r := got[i].Points[j], ref[i].Points[j]
						if g.T != r.T || math.Float64bits(g.V) != math.Float64bits(r.V) {
							t.Fatalf("nanAt=%d %v step=%d: point %d: got %v/%x want %v/%x",
								nanAt, agg, step, j, g.T, math.Float64bits(g.V), r.T, math.Float64bits(r.V))
						}
					}
				}
			}
		}
	}
}

// TestQueryEngineExtremeTimestamps pins the unsigned bucket math
// directly with points near the int64 extremes (ingested via
// WriteSamples, which does not bound timestamps the way the line
// protocol does).
func TestQueryEngineExtremeTimestamps(t *testing.T) {
	s := NewSharded(2)
	samples := []Sample{
		{Component: "x", Metric: "m", T: math.MinInt64 + 5, V: 1},
		{Component: "x", Metric: "m", T: -1000, V: 2},
		{Component: "x", Metric: "m", T: 1000, V: 3},
		{Component: "x", Metric: "m", T: math.MaxInt64 - 5, V: 4},
	}
	if err := s.WriteSamples(samples, 0); err != nil {
		t.Fatal(err)
	}
	for _, q := range []RangeQuery{
		{Component: "*", Metric: "*", From: math.MinInt64, To: math.MaxInt64, Agg: AggCount, StepMS: math.MaxInt64},
		{Component: "*", Metric: "*", From: math.MinInt64, To: math.MaxInt64, Agg: AggSum, StepMS: 1},
		{Component: "*", Metric: "*", From: math.MinInt64 + 5, To: math.MaxInt64, Agg: AggRate, StepMS: math.MaxInt64},
		{Component: "*", Metric: "*", From: -2000, To: 2000},
	} {
		got := engineQuery(t, s, q)
		if ref := refQueryRange(t, s, q); !sameResults(got, ref) {
			t.Fatalf("%+v: engine %s != reference %s", q, describeResults(got), describeResults(ref))
		}
	}
}

// TestQueryKnownSeriesAndNetworkOut pins Query's two contracts on a
// durable store wherever a series' points happen to live: a key that is
// nowhere is ErrUnknownSeries, a key the catalog holds answers with a nil
// error even when nothing is in range, and network-out grows by exactly
// 16 bytes per returned point, charged once whichever side served them.
func TestQueryKnownSeriesAndNetworkOut(t *testing.T) {
	dir := t.TempDir()
	open := func() *Sharded {
		t.Helper()
		s, err := OpenSharded(2, DurabilityOptions{Dir: dir, FlushInterval: -1, CompactInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	const n = 40
	var samples []Sample
	for i := 0; i < n; i++ {
		samples = append(samples, Sample{Component: "web", Metric: "cpu", T: int64(i) * 10, V: float64(i)})
	}
	check := func(s *Sharded, where string) {
		t.Helper()
		for _, r := range []struct {
			from, to int64
			want     int
		}{
			{0, n * 10, n},
			{100, 200, 10},
			{n * 10, n * 20, 0}, // known series, nothing in range
		} {
			before := s.Stats().NetworkOutBytes
			pts, err := s.Query("web", "cpu", r.from, r.to)
			if err != nil {
				t.Fatalf("%s [%d,%d): %v", where, r.from, r.to, err)
			}
			if len(pts) != r.want {
				t.Fatalf("%s [%d,%d): %d points, want %d", where, r.from, r.to, len(pts), r.want)
			}
			if got := s.Stats().NetworkOutBytes - before; got != 16*r.want {
				t.Fatalf("%s [%d,%d): network-out grew by %d, want %d", where, r.from, r.to, got, 16*r.want)
			}
		}
		before := s.Stats().NetworkOutBytes
		if _, err := s.Query("web", "nope", 0, n*10); !errors.Is(err, ErrUnknownSeries) {
			t.Fatalf("%s: unknown key: err = %v, want ErrUnknownSeries", where, err)
		}
		if got := s.Stats().NetworkOutBytes; got != before {
			t.Fatalf("%s: unknown key charged %d bytes of network-out", where, got-before)
		}
	}

	s := open()
	if err := s.WriteSamples(samples, 0); err != nil {
		t.Fatal(err)
	}
	check(s, "memory only")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check(s, "block only after checkpoint")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open()
	defer s.Close()
	check(s, "block only after reopen")
}
