package tsdb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
	// An omitted to never inverts the range: from past the default end
	// reads the empty range [from, from).
	q, err = ParseRangeQuery("", "", "1000", "", "", "", 501)
	if err != nil || q.From != 1000 || q.To != 1000 {
		t.Fatalf("from past the default to: %+v, %v; want the empty range [1000, 1000)", q, err)
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

	pts, err := readSeries(db, "web", "cpu", 0, int64(blockSize))
	if err != nil {
		t.Fatalf("query disjoint from corrupt chunk: %v", err)
	}
	if len(pts) != blockSize {
		t.Fatalf("got %d points, want %d", len(pts), blockSize)
	}
	if _, err := readSeries(db, "web", "cpu", 0, int64(blockSize)+1); err == nil {
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

	if _, err := readSeries(s, "web", "cpu", 0, int64(maxChunkPoints)); err != nil {
		t.Fatalf("query disjoint from corrupt block chunk: %v", err)
	}
	if _, err := readSeries(s, "web", "cpu", 0, int64(n)); err == nil {
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

// TestQueryEngineDecodeBudget reads a series compacted from 11 blocks of
// 60 scrapes 15 s apart (one dashboard series) over its last hour. A
// range read decodes only the chunks it overlaps, so it decodes at most
// three of the series' six maxChunkPoints chunks — the two it straddles
// and the one between — and skips the rest from the index, raw and
// aggregated alike.
func TestQueryEngineDecodeBudget(t *testing.T) {
	s, tel := openCompactable(t, t.TempDir(), 1, FsyncNever, 0)
	defer s.Close()
	const blocks, perBlock, scrapeMS = 11, 60, 15_000
	for b := 0; b < blocks; b++ {
		batch := make([]Sample, perBlock)
		for i := range batch {
			n := b*perBlock + i
			batch[i] = Sample{Component: "web", Metric: "cpu", T: int64(n) * scrapeMS, V: float64(n % 7)}
		}
		if err := s.WriteSamples(batch, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := s.BlockCount(); n != 1 {
		t.Fatalf("%d blocks after compaction, want 1", n)
	}
	end := int64(blocks*perBlock) * scrapeMS
	for _, q := range []RangeQuery{
		{Component: "web", Metric: "cpu", From: end - 3_600_000, To: end},
		{Component: "web", Metric: "cpu", From: end - 3_600_000, To: end, Agg: AggAvg, StepMS: 60_000},
	} {
		decoded, skipped := tel.ChunksDecoded.Value(), tel.ChunksSkipped.Value()
		res, err := s.QueryRange(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if want := int(3_600_000 / max(scrapeMS, q.StepMS)); len(res) != 1 || len(res[0].Points) != want {
			t.Fatalf("%s: %d series, want one of %d points", q.Agg, len(res), want)
		}
		decoded, skipped = tel.ChunksDecoded.Value()-decoded, tel.ChunksSkipped.Value()-skipped
		if decoded > 3 || skipped < 3 {
			t.Errorf("%s over the last hour: %d chunks decoded and %d skipped, want at most 3 and at least 3", q.Agg, decoded, skipped)
		}
	}
}

// TestQueryEngineRawSinkSizedFromRefs pins that a raw read grows its
// point buffer once per run of block chunks, by the points the run's refs
// hold, rather than doubling as points arrive: over a compacted store, a
// wide raw read of whole series costs no more allocations than one of
// their last ten points.
func TestQueryEngineRawSinkSizedFromRefs(t *testing.T) {
	s, _ := openCompactable(t, t.TempDir(), 2, FsyncNever, 0)
	defer s.Close()
	const series, rounds, perRound = 16, 4, 600
	for r := 0; r < rounds; r++ {
		var batch []Sample
		for i := 0; i < perRound; i++ {
			for c := 0; c < series; c++ {
				batch = append(batch, Sample{Component: fmt.Sprintf("c%02d", c), Metric: "m", T: int64(r*perRound+i) * 1000, V: float64(i % 13)})
			}
		}
		if err := s.WriteSamples(batch, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	end := int64(rounds*perRound) * 1000
	allocs := func(from int64) float64 {
		q := RangeQuery{Component: "*", Metric: "*", From: from, To: end}
		return testing.AllocsPerRun(10, func() {
			if _, err := s.QueryRange(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		})
	}
	if tail, whole := allocs(end-10_000), allocs(0); whole > tail+2 {
		t.Errorf("raw read of %d whole series: %v allocs/op, of their last 10 points: %v; the point buffer grows by doubling", series, whole, tail)
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
	m    *storeModel
}

func fuzzQueryStore(f *testing.F) (*Sharded, *storeModel) {
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
		fuzzStore.m = newStoreModel(0)
		fuzzStore.m.add(samples)
	})
	return fuzzStore.s, fuzzStore.m
}

// FuzzQueryRange fuzzes the /query_range parameter parsing and the
// engine's bucket math: any parameter combination either fails ParseRangeQuery
// cleanly or produces results bit-identical to the store model — across
// glob patterns, step=0, inverted ranges, and extreme timestamps (the
// bucket index runs through unsigned arithmetic; a signed overflow would
// diverge from the model or panic).
func FuzzQueryRange(f *testing.F) {
	f.Add("web-a", "cpu_util", "0", "10000", "avg", "500")
	f.Add("*", "*", "", "", "", "")
	f.Add("w?b*", "*u*", "-5000", "5000", "rate", "333")
	f.Add("db-*", "mem*", "100", "50", "sum", "10") // inverted
	f.Add("*", "*", "0", "9000", "max", "0")        // step=0
	f.Add("*", "*", "-9223372036854775808", "9223372036854775807", "count", "9223372036854775807")
	f.Add("***", "???", "12", "13", "min", "1")
	f.Add("", "", "9999999999999", "", "rate", "9999999999")
	store, model := fuzzQueryStore(f)
	f.Fuzz(func(t *testing.T, component, metric, from, to, agg, step string) {
		if len(component) > 64 || len(metric) > 64 {
			return // keep the backtracking matchers cheap
		}
		q, err := ParseRangeQuery(component, metric, from, to, agg, step, 20000)
		if err != nil {
			return
		}
		assertBitIdentical(t, "fuzz", q, engineQuery(t, store, q), model.queryRange(q))
	})
}

// equivSamples generates a scrape-like dataset: comps components x mets
// metrics, one sample per series per tick. Per-series timestamps
// strictly increase (offset per series); with jitter, ~10% of adjacent
// arrivals are swapped across the whole stream, so some series see
// out-of-order arrival that crosses seal boundaries.
func equivSamples(seed int64, comps, mets, ticks int, jitter bool) []Sample {
	rng := rand.New(rand.NewSource(seed))
	compNames := make([]string, comps)
	for c := range compNames {
		compNames[c] = fmt.Sprintf([]string{"web-%02d", "db-%02d", "worker%02d"}[c%3], c)
	}
	metNames := make([]string, mets)
	for m := range metNames {
		metNames[m] = fmt.Sprintf([]string{"cpu_util_%d", "mem_used_%d", "net_rx_%d"}[m%3], m)
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

// equivQueries is a matcher/range/aggregation matrix over a dataset
// whose newest timestamp is span.
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

// readOps is one QueryRange op per query, each at GOMAXPROCS procs (0
// for the machine's).
func readOps(qs []RangeQuery, procs int) []op {
	ops := make([]op, len(qs))
	for i, q := range qs {
		ops[i] = op{Kind: opQueryRange, Q: q, Procs: procs}
	}
	return ops
}

// TestQueryEngineEquivalenceInMemory checks in-memory stores at shard
// counts {1, 4, GOMAXPROCS} against the model, each read at fan-out
// sizes {GOMAXPROCS, 1, 4} (pinned through runtime.GOMAXPROCS, the
// fan-out's only size), on a fully ordered and an out-of-order dataset.
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
			m := newStoreModel(0)
			m.add(samples)
			shardCounts := []int{1, 4, procs}
			stores := make([]*Sharded, len(shardCounts))
			for i, n := range shardCounts {
				stores[i] = NewSharded(n)
				if err := stores[i].WriteSamples(samples, 0); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range equivQueries(maxSampleT(samples)) {
				want := m.queryRange(q)
				for i, st := range stores {
					for _, par := range []int{procs, 1, 4} {
						runtime.GOMAXPROCS(par)
						assertBitIdentical(t, fmt.Sprintf("shards=%d par=%d", shardCounts[i], par), q, engineQuery(t, st, q), want)
					}
				}
			}
		})
	}
}

// TestQueryEngineEquivalenceDurable reads a durable store through its
// lifecycle: blocks plus memory, then closed and reopened (everything
// in blocks) at shard counts {1, 4, GOMAXPROCS}. The dataset is ordered,
// so even sum/avg rounding must survive the block rewrite.
func TestQueryEngineEquivalenceDurable(t *testing.T) {
	samples := equivSamples(7, 4, 3, 1200, false)
	qs := equivQueries(maxSampleT(samples))
	half := len(samples) / 2
	ops := []op{
		{Kind: opWriteSamples, Batch: samples[:half]},
		{Kind: opCheckpoint},
		{Kind: opWriteSamples, Batch: samples[half:]},
	}
	ops = append(ops, readOps(qs, 0)...)
	for _, n := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		ops = append(ops, op{Kind: opClose, Shards: n})
		ops = append(ops, readOps(qs, 0)...)
	}
	playScript(t, storeScript{name: "durable", shards: 4, fsync: FsyncNever, ops: ops})
}

// TestQueryEngineEquivalenceJitteredDurable reads a durable store fed
// out-of-order arrivals across two checkpoints, so chunks overlap in
// time on both the memory and the block side, where skip decisions are
// easiest to get wrong.
func TestQueryEngineEquivalenceJitteredDurable(t *testing.T) {
	samples := equivSamples(99, 3, 3, 1000, true)
	third := len(samples) / 3
	ops := []op{
		{Kind: opWriteSamples, Batch: samples[:third]},
		{Kind: opCheckpoint},
		{Kind: opWriteSamples, Batch: samples[third : 2*third]},
		{Kind: opCheckpoint},
		{Kind: opWriteSamples, Batch: samples[2*third:]},
	}
	ops = append(ops, readOps(equivQueries(maxSampleT(samples)), 0)...)
	playScript(t, storeScript{name: "jittered durable", shards: 3, fsync: FsyncNever, ops: ops})
}

// TestQueryEngineNaNValues pins the engine against the model for
// NaN values (reachable only through the internal WriteSamples API —
// the line protocol rejects non-finite values): buckets seed from their
// first contribution and update by comparison, so the decode path, the
// summary push-down path, and the model all agree bitwise on where NaN
// lands.
func TestQueryEngineNaNValues(t *testing.T) {
	nan := math.NaN()
	// NaN positions: seeding the first chunk's summary, seeding a later
	// chunk's summary (where a poisoned summary once hid the chunk's
	// real extrema from push-down), and mid-chunk.
	nanPositions := []int{0, blockSize, blockSize / 2}
	build := func(nanAt int) (*Sharded, *storeModel) {
		s, m := NewSharded(2), newStoreModel(0)
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
		m.add(samples)
		// Seal everything so summary push-down is exercised; the samples
		// are in time order, so sealing early leaves the storage order the
		// model states.
		s.Flush()
		return s, m
	}
	span := int64(2*blockSize) * 10
	for _, nanAt := range nanPositions {
		s, m := build(nanAt)
		for _, agg := range []Agg{AggMin, AggMax, AggAvg, AggSum, AggCount, AggRate} {
			for _, step := range []int64{span * 2, span / 8} { // push-down and decode widths
				q := RangeQuery{Component: "*", Metric: "*", From: 0, To: span, Agg: agg, StepMS: step}
				assertBitIdentical(t, fmt.Sprintf("nanAt=%d", nanAt), q, engineQuery(t, s, q), m.queryRange(q))
			}
		}
	}
}

// TestQueryEngineExtremeTimestamps pins the unsigned bucket math
// directly with points near the int64 extremes (ingested via
// WriteSamples, which does not bound timestamps the way the line
// protocol does).
func TestQueryEngineExtremeTimestamps(t *testing.T) {
	s, m := NewSharded(2), newStoreModel(0)
	samples := []Sample{
		{Component: "x", Metric: "m", T: math.MinInt64 + 5, V: 1},
		{Component: "x", Metric: "m", T: -1000, V: 2},
		{Component: "x", Metric: "m", T: 1000, V: 3},
		{Component: "x", Metric: "m", T: math.MaxInt64 - 5, V: 4},
	}
	if err := s.WriteSamples(samples, 0); err != nil {
		t.Fatal(err)
	}
	m.add(samples)
	for _, q := range []RangeQuery{
		{Component: "*", Metric: "*", From: math.MinInt64, To: math.MaxInt64, Agg: AggCount, StepMS: math.MaxInt64},
		{Component: "*", Metric: "*", From: math.MinInt64, To: math.MaxInt64, Agg: AggSum, StepMS: 1},
		{Component: "*", Metric: "*", From: math.MinInt64 + 5, To: math.MaxInt64, Agg: AggRate, StepMS: math.MaxInt64},
		{Component: "*", Metric: "*", From: -2000, To: 2000},
	} {
		assertBitIdentical(t, "extreme", q, engineQuery(t, s, q), m.queryRange(q))
	}
}

// TestQueryKnownSeriesAndNetworkOut pins an exact read's two contracts on
// a durable store wherever a series' points happen to live: a key with
// nothing in range and a key that is nowhere both read as no points and
// a nil error, and network-out grows by exactly 16 bytes per returned
// point, charged once whichever side served them.
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
			pts, err := readSeries(s, "web", "cpu", r.from, r.to)
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
		if pts, err := readSeries(s, "web", "nope", 0, n*10); err != nil || len(pts) != 0 {
			t.Fatalf("%s: unknown key: %d points, err = %v; want none", where, len(pts), err)
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
			if err := diffPoints(out, refAggregate(c.pts, q)); err != nil {
				t.Fatalf("%v %s: %v", agg, c.name, err)
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
