package tsdb

// Unit and fuzz coverage for the compaction internals: bucket
// assignment at extreme timestamps, the downsample fold against a naive
// from-scratch reference, run planning, the upgrade from companion
// files, and the resolution-selection / raw-fallback decision observed through the
// DownsampledBucketsRead telemetry counter.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// openCompactable opens a durable store with every background ticker
// disabled and downsampling enabled, so tests drive checkpoints and
// compaction passes explicitly; it returns the store's instrument set.
func openCompactable(t *testing.T, dir string, shards int, fsync FsyncPolicy, retentionMS int64) (*Sharded, *StoreTelemetry) {
	t.Helper()
	s, err := OpenSharded(shards, DurabilityOptions{
		Dir: dir, Fsync: fsync, FlushInterval: -1, CompactInterval: -1,
		RetentionMS: retentionMS, Downsample: true,
	})
	if err != nil {
		t.Fatalf("OpenSharded(%s): %v", dir, err)
	}
	return s, s.Telemetry()
}

// compactSamples generates a scrape-like dataset wide enough for 5m/1h
// buckets to exist (ticks are tickMS apart), with per-series phase
// offsets, ~10% adjacent arrival swaps (out-of-order data crossing
// checkpoint cuts, so merged blocks carry multiple segments), and — with
// withNaN — periodic NaN values on one series (NoSummary chunks and
// downsampled buckets).
func compactSamples(seed int64, comps, mets, ticks int, tickMS int64, withNaN bool) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, 0, comps*mets*ticks)
	for i := 0; i < ticks; i++ {
		for c := 0; c < comps; c++ {
			for m := 0; m < mets; m++ {
				v := rng.NormFloat64() * 100
				if withNaN && c == 0 && m == 0 && i%97 == 13 {
					v = math.NaN()
				}
				out = append(out, Sample{
					Component: fmt.Sprintf("svc-%02d", c),
					Metric:    fmt.Sprintf("metric_%d", m),
					T:         int64(i)*tickMS + int64((c*31+m*17)%997),
					V:         v,
				})
			}
		}
	}
	for i := 0; i+1 < len(out); i += 2 {
		if rng.Intn(10) == 0 {
			out[i], out[i+1] = out[i+1], out[i]
		}
	}
	return out
}

func maxSampleT(samples []Sample) int64 {
	var span int64
	for _, s := range samples {
		if s.T > span {
			span = s.T
		}
	}
	return span
}

// compactQueries extends the engine equivalence matrix with the coarse
// steps that select downsampled resolutions — aligned From (companions
// consumable), unaligned From (companion buckets straddle query buckets
// and must fall back to raw), and ranges cutting through buckets.
func compactQueries(span int64) []RangeQuery {
	qs := equivQueries(span)
	for _, agg := range []Agg{AggMin, AggMax, AggAvg, AggSum, AggCount, AggRate} {
		for _, step := range []int64{5 * 60_000, 10 * 60_000, 60 * 60_000, 2 * 60 * 60_000} {
			qs = append(qs,
				RangeQuery{Component: "*", Metric: "*", From: 0, To: span + 1, Agg: agg, StepMS: step},
				RangeQuery{Component: "*", Metric: "*", From: 137, To: span - 4321, Agg: agg, StepMS: step},
			)
			if 3*step/2 < span {
				qs = append(qs, RangeQuery{Component: "svc-*", Metric: "metric_?", From: step, To: span - step/2, Agg: agg, StepMS: step})
			}
		}
	}
	return qs
}

// TestCompactionEquivalence reads a store whose blocks are merged and
// downsampled mid-history and at the end, with a memory tail and NaN
// chunks, and after a reopen, at two shard counts and fsync policies.
func TestCompactionEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, fsync := range []FsyncPolicy{FsyncInterval, FsyncNever} {
			t.Run(fmt.Sprintf("shards=%d,fsync=%s", shards, fsync), func(t *testing.T) {
				t.Parallel()
				testCompactionEquivalence(t, shards, fsync)
			})
		}
	}
}

func testCompactionEquivalence(t *testing.T, shards int, fsync FsyncPolicy) {
	samples := compactSamples(31+int64(shards), 3, 3, 900, 10_000, true)
	reads := readOps(compactQueries(maxSampleT(samples)), 0)
	// 12 checkpoint rounds build many small blocks; compaction fires
	// mid-history (after rounds 4 and 8), so later checkpoints land after
	// merged blocks, not only the compact-everything-at-the-end case.
	const rounds = 12
	per := len(samples) / rounds
	var ops []op
	for r := 0; r < rounds; r++ {
		ops = append(ops, op{Kind: opWriteSamples, Batch: samples[r*per : (r+1)*per]}, op{Kind: opCheckpoint})
		if r == 4 || r == 8 {
			ops = append(ops, op{Kind: opCompact})
			ops = append(ops, reads...)
		}
	}
	// A tail beyond the last checkpoint stays in memory: compaction must
	// compose with the memory read path too. Then merged blocks,
	// companions and checkpoint blocks must reload into the same bytes.
	ops = append(ops, op{Kind: opWriteSamples, Batch: samples[rounds*per:]}, op{Kind: opCompact})
	ops = append(ops, reads...)
	ops = append(ops, op{Kind: opClose, Shards: shards})
	ops = append(ops, reads...)
	playScript(t, storeScript{name: t.Name(), shards: shards, fsync: fsync, ops: ops,
		// Without merged blocks or downsampled reads the suite would test
		// nothing it claims to.
		end: func(st *Sharded) error {
			if n := st.BlockCount(); n >= rounds {
				return fmt.Errorf("compaction did not reduce blocks: %d after %d checkpoints", n, rounds)
			}
			if st.Telemetry().DownsampledBucketsRead.Value() == 0 {
				return fmt.Errorf("no downsampled buckets were consumed by the coarse-step queries")
			}
			return nil
		}})
}

// TestCompactionEquivalenceRetention runs the compaction reads with a
// retention horizon in play. Every third round merges every block, and a
// merged block ages by its newest point, so its oldest points outlive
// the horizon: the store must keep exactly what the model keeps.
func TestCompactionEquivalenceRetention(t *testing.T) {
	samples := compactSamples(77, 3, 2, 600, 10_000, true)
	const retention = 45 * 60_000 // 45m of a ~100m span
	const rounds = 10
	per := len(samples) / rounds
	var ops []op
	for r := 0; r < rounds; r++ {
		ops = append(ops, op{Kind: opWriteSamples, Batch: samples[r*per : (r+1)*per]}, op{Kind: opCheckpoint})
		if r%3 == 2 {
			ops = append(ops, op{Kind: opCompact})
		}
	}
	ops = append(ops, readOps(compactQueries(maxSampleT(samples)), 0)...)
	playScript(t, storeScript{name: "compaction retention", shards: 4, fsync: FsyncNever, retentionMS: retention, ops: ops})
}

// bigFloorDiv is the overflow-proof reference for bucket assignment:
// big.Int division is Euclidean, which for a positive divisor equals
// floor division, and cannot overflow at any int64 input.
func bigFloorDiv(t, d int64) int64 {
	var q big.Int
	q.Div(big.NewInt(t), big.NewInt(d))
	return q.Int64()
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ t, d int64 }{
		{0, 1}, {7, 3}, {-7, 3}, {6, 3}, {-6, 3}, {1, 300000},
		{-1, 300000}, {299999, 300000}, {300000, 300000}, {-300001, 300000},
		{math.MaxInt64, 300000}, {math.MinInt64, 300000},
		{math.MaxInt64, 3600000}, {math.MinInt64, 3600000},
		{math.MaxInt64, 1}, {math.MinInt64, 1},
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		d := []int64{300000, 3600000}[rng.Intn(2)]
		cases = append(cases, struct{ t, d int64 }{rng.Int63() - rng.Int63(), d})
	}
	for _, c := range cases {
		if got, want := floorDiv(c.t, c.d), bigFloorDiv(c.t, c.d); got != want {
			t.Errorf("floorDiv(%d, %d) = %d, want %d", c.t, c.d, got, want)
		}
	}
}

// refDownsampleSeries recomputes every per-bucket fact from scratch —
// group points by big.Int bucket assignment, then derive each fact by
// an independent formulation (scan for the extremal timestamps, pick
// first/last carriers by position, comparison-fold the values) — rather
// than mirroring downsampleSeries' single-pass displacement rules.
func refDownsampleSeries(pts []Point, resMS int64) []summary {
	groups := map[int64][]Point{}
	for _, p := range pts {
		idx := bigFloorDiv(p.T, resMS)
		groups[idx] = append(groups[idx], p)
	}
	idxs := make([]int64, 0, len(groups))
	for idx := range groups {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	out := make([]summary, 0, len(idxs))
	for _, idx := range idxs {
		g := groups[idx]
		r := summary{Count: len(g), MinT: g[0].T, MaxT: g[0].T}
		for _, p := range g {
			if p.T < r.MinT {
				r.MinT = p.T
			}
			if p.T > r.MaxT {
				r.MaxT = p.T
			}
		}
		for _, p := range g { // first point carrying the minimum timestamp
			if p.T == r.MinT {
				r.FirstV = p.V
				break
			}
		}
		for _, p := range g { // last point carrying the maximum timestamp
			if p.T == r.MaxT {
				r.LastV = p.V
			}
		}
		r.MinV, r.MaxV = g[0].V, g[0].V
		for _, p := range g {
			if p.V != p.V {
				r.NoSummary = true
			}
			if p.V < r.MinV {
				r.MinV = p.V
			}
			if p.V > r.MaxV {
				r.MaxV = p.V
			}
		}
		if r.NoSummary ||
			!isFinite(r.MinV) || !isFinite(r.MaxV) ||
			!isFinite(r.FirstV) || !isFinite(r.LastV) {
			r.NoSummary = true
			r.MinV, r.MaxV, r.FirstV, r.LastV = 0, 0, 0, 0
		}
		out = append(out, r)
	}
	return out
}

// mapDownsampleSeries is downsampleSeries as it was before it folded
// into a sorted slice: a map of bucket pointers, sorted at the end. Kept
// verbatim as the second reference — same single-pass displacement
// rules, different container — beside the from-scratch one above.
func mapDownsampleSeries(pts []Point, resMS int64) []summary {
	if len(pts) == 0 {
		return nil
	}
	buckets := map[int64]*summary{}
	idxs := make([]int64, 0, 8)
	for _, p := range pts {
		idx := floorDiv(p.T, resMS)
		b := buckets[idx]
		if b == nil {
			b = &summary{
				Count: 1, MinT: p.T, MaxT: p.T,
				MinV: p.V, MaxV: p.V, FirstV: p.V, LastV: p.V,
			}
			if p.V != p.V { // NaN
				b.NoSummary = true
			}
			buckets[idx] = b
			idxs = append(idxs, idx)
			continue
		}
		b.Count++
		if p.V != p.V {
			b.NoSummary = true
		}
		if p.V < b.MinV {
			b.MinV = p.V
		}
		if p.V > b.MaxV {
			b.MaxV = p.V
		}
		if p.T < b.MinT {
			b.MinT, b.FirstV = p.T, p.V
		}
		if p.T >= b.MaxT {
			b.MaxT, b.LastV = p.T, p.V
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	out := make([]summary, 0, len(idxs))
	for _, idx := range idxs {
		r := *buckets[idx]
		if r.NoSummary ||
			!isFinite(r.MinV) || !isFinite(r.MaxV) ||
			!isFinite(r.FirstV) || !isFinite(r.LastV) {
			r.NoSummary = true
			r.MinV, r.MaxV, r.FirstV, r.LastV = 0, 0, 0, 0
		}
		out = append(out, r)
	}
	return out
}

// TestDownsampleSeriesMatchesMapReference drives the slice fold through
// the feed orders that take its different paths — in order (append at
// the end), late segments (search, then insert or revisit), heavy
// duplication, shuffled — at ordinary, negative and extreme timestamps,
// with NaN, infinities and sums that overflow.
func TestDownsampleSeriesMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	bases := []int64{0, -7_200_000, 1_700_000_000_000, math.MinInt64 + 1, math.MaxInt64 - 8*3_600_000}
	for iter := 0; iter < 400; iter++ {
		resMS := downsampleResolutions[iter%len(downsampleResolutions)]
		base := bases[iter%len(bases)]
		n := 1 + rng.Intn(600)
		pts := make([]Point, 0, n)
		ts := base
		for len(pts) < n {
			ts += int64(rng.Intn(4)) * resMS / 8 // steps of 0: duplicate timestamps
			v := rng.NormFloat64() * 1000
			switch rng.Intn(24) {
			case 0:
				v = math.NaN()
			case 1:
				v = math.Inf(1)
			case 2:
				v = math.Inf(-1)
			case 3:
				v = -math.MaxFloat64
			}
			pts = append(pts, Point{T: ts, V: v})
		}
		switch iter % 4 {
		case 1: // late segments: later stretches of the stream replay earlier time
			for cut := rng.Intn(n); cut < n; cut += 1 + rng.Intn(n) {
				back := int64(1+rng.Intn(6)) * resMS / 2
				for i := cut; i < n; i++ {
					pts[i].T -= back
				}
			}
		case 2:
			rng.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		case 3: // everything in one or two buckets
			for i := range pts {
				pts[i].T = base + int64(rng.Intn(2))*resMS + int64(rng.Intn(3))
			}
		}
		// Fed as segments, as the block writer feeds it, split at random
		// cuts: the fold runs on across segment boundaries.
		var segs [][]Point
		for rest := pts; len(rest) > 0; {
			cut := 1 + rng.Intn(len(rest))
			segs, rest = append(segs, rest[:cut]), rest[cut:]
		}
		got, want := downsampleSeries(resMS, segs...), mapDownsampleSeries(pts, resMS)
		if len(got) != len(want) {
			t.Fatalf("iter %d res=%d: %d buckets, map reference has %d", iter, resMS, len(got), len(want))
		}
		for i := range got {
			if !summariesEqual(got[i], want[i]) {
				t.Fatalf("iter %d res=%d bucket %d:\n got %+v\nwant %+v", iter, resMS, i, got[i], want[i])
			}
		}
	}
}

func summariesEqual(a, b summary) bool {
	return a.Count == b.Count && a.MinT == b.MinT && a.MaxT == b.MaxT &&
		a.NoSummary == b.NoSummary &&
		math.Float64bits(a.MinV) == math.Float64bits(b.MinV) &&
		math.Float64bits(a.MaxV) == math.Float64bits(b.MaxV) &&
		math.Float64bits(a.FirstV) == math.Float64bits(b.FirstV) &&
		math.Float64bits(a.LastV) == math.Float64bits(b.LastV)
}

// FuzzDownsampleBuckets pins the bucket math against the naive
// reference across feed orders, resolutions, NaN/Inf/huge values, and
// timestamps pushed to the int64 extremes where a multiply-based bucket
// assignment would overflow.
func FuzzDownsampleBuckets(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(0), uint8(0))
	f.Add(int64(2), uint16(300), uint8(1), uint8(1))
	f.Add(int64(3), uint16(17), uint8(0), uint8(2))
	f.Add(int64(4), uint16(17), uint8(1), uint8(3))
	f.Add(int64(5), uint16(512), uint8(0), uint8(1))
	f.Add(int64(6), uint16(1), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, resIdx, mode uint8) {
		count := int(n)%1024 + 1
		resMS := downsampleResolutions[int(resIdx)%len(downsampleResolutions)]
		rng := rand.New(rand.NewSource(seed))
		pts := make([]Point, count)
		for i := range pts {
			var ts int64
			switch mode % 4 {
			case 0: // dense positive: many points per bucket
				ts = rng.Int63n(6 * 3600 * 1000)
			case 1: // scattered across the full signed range
				ts = rng.Int63() - rng.Int63()
			case 2: // hugging MaxInt64: k*resMS overflows, floor must not
				ts = math.MaxInt64 - rng.Int63n(4*resMS)
			case 3: // hugging MinInt64: truncation rounds the wrong way
				ts = math.MinInt64 + rng.Int63n(4*resMS)
			}
			v := rng.NormFloat64() * 1000
			switch rng.Intn(16) {
			case 0:
				v = math.NaN()
			case 1:
				v = math.Inf(1)
			case 2:
				v = -math.MaxFloat64 // sum overflow → non-finite fact
			}
			pts[i] = Point{T: ts, V: v}
		}
		got := downsampleSeries(resMS, pts)
		want := refDownsampleSeries(pts, resMS)
		if len(got) != len(want) {
			t.Fatalf("res=%d: %d buckets, reference has %d", resMS, len(got), len(want))
		}
		total := 0
		for i := range got {
			if !summariesEqual(got[i], want[i]) {
				t.Fatalf("res=%d bucket %d:\n got %+v\nwant %+v", resMS, i, got[i], want[i])
			}
			total += got[i].Count
			if bigFloorDiv(got[i].MinT, resMS) != bigFloorDiv(got[i].MaxT, resMS) {
				t.Fatalf("res=%d bucket %d spans grid cells: [%d, %d]", resMS, i, got[i].MinT, got[i].MaxT)
			}
			if i > 0 && bigFloorDiv(got[i-1].MaxT, resMS) >= bigFloorDiv(got[i].MinT, resMS) {
				t.Fatalf("res=%d buckets %d/%d out of order or overlapping", resMS, i-1, i)
			}
		}
		if total != count {
			t.Fatalf("res=%d: buckets hold %d points, fed %d", resMS, total, count)
		}
	})
}

// TestCompactBackfillsCompanions: a block written in a life without
// Downsample, reopened with it, is one no merge takes, so Compact
// rewrites it as a run of one with both companions, which coarse
// queries then consume; the store reads as before, and a second pass
// finds nothing to do.
func TestCompactBackfillsCompanions(t *testing.T) {
	samples := compactSamples(5, 2, 2, 240, 15_000, false) // 1 hour
	dir := t.TempDir()
	s := openCrashable(t, dir, 2)
	m := newStoreModel(0)
	if err := s.WriteSamples(samples, 0); err != nil {
		t.Fatal(err)
	}
	m.add(samples)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m.checkpoint()

	s, tel := openCompactable(t, dir, 2, FsyncNever, 0)
	defer s.Close()
	if n := s.BlockCount(); n != 1 || len(s.dur.blocks[0].ds) != 0 {
		t.Fatalf("reopened with %d blocks, the first with %d companions; want one without", n, len(s.dur.blocks[0].ds))
	}
	for pass := 1; pass <= 2; pass++ {
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if merged, built := tel.CompactionMergedBlocks.Value(), tel.DownsampleSeconds.Count(); merged != 1 || built != uint64(len(downsampleResolutions)) {
			t.Fatalf("after pass %d: %d blocks retired and %d companions built, want 1 and %d",
				pass, merged, built, len(downsampleResolutions))
		}
	}
	b := s.dur.blocks[0]
	for _, res := range downsampleResolutions {
		if len(b.ds[res]) == 0 {
			t.Fatalf("companion %d: no series loaded", res)
		}
	}
	assertSameContents(t, s, m, "companion backfill")
	q := RangeQuery{Component: "*", Metric: "*", From: 0, To: maxSampleT(samples) + 1, Agg: AggMax, StepMS: 300_000}
	assertBitIdentical(t, "companion backfill", q, engineQuery(t, s, q), m.queryRange(q))
	if tel.DownsampledBucketsRead.Value() == 0 {
		t.Error("the 5m max query consumed no downsampled buckets")
	}
}

func TestPlanCompactRuns(t *testing.T) {
	mk := func(sizes ...int64) []*block {
		bs := make([]*block, len(sizes))
		for i, sz := range sizes {
			bs[i] = &block{meta: blockMeta{Seq: uint64(i + 1), ChunkBytes: sz}}
		}
		return bs
	}
	// seqs flattens planned runs into source Seq lists for comparison.
	seqs := func(runs [][]*block) [][]uint64 {
		var out [][]uint64
		for _, run := range runs {
			var ids []uint64
			for _, b := range run {
				ids = append(ids, b.meta.Seq)
			}
			out = append(out, ids)
		}
		return out
	}
	cases := []struct {
		name     string
		blocks   []*block
		maxBytes int64
		want     [][]uint64
	}{
		{"empty", nil, 100, nil},
		{"single block never merges", mk(10), 100, nil},
		{"all fit one run", mk(10, 10, 10), 100, [][]uint64{{1, 2, 3}}},
		{"cap splits run, lone tail dropped", mk(10, 10, 10), 25, [][]uint64{{1, 2}}},
		{"oversized block ends runs", mk(10, 200, 10, 10), 100, [][]uint64{{3, 4}}},
		{"block exactly at cap stands alone", mk(100, 10, 10), 100, [][]uint64{{2, 3}}},
		{"two full runs", mk(40, 40, 40, 40), 80, [][]uint64{{1, 2}, {3, 4}}},
		{"half-cap neighbors cannot pair", mk(60, 60, 60), 100, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := seqs(planCompactRuns(c.blocks, c.maxBytes))
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Fatalf("planCompactRuns = %v, want %v", got, c.want)
			}
		})
	}
}

// TestDownsampledResolutionSelection drives real queries through a
// compacted store and asserts — via the DownsampledBucketsRead counter —
// exactly which queries answer from summaries: coarse aligned
// min/max/count/rate steps do, sub-resolution steps, unaligned From, and
// sum/avg never do. Every answer is also checked against the store
// model, so the counter cannot certify a wrong fast path.
func TestDownsampledResolutionSelection(t *testing.T) {
	// 4 hours at 15s ticks: 48 full 5m buckets per hour, 4 full 1h buckets.
	samples := compactSamples(7, 1, 2, 960, 15_000, false)
	span := maxSampleT(samples) + 1

	s, tel := openCompactable(t, t.TempDir(), 1, FsyncNever, 0)
	defer s.Close()
	m := newStoreModel(0)
	const rounds = 6
	per := len(samples) / rounds
	for r := 0; r < rounds; r++ {
		if err := s.WriteSamples(samples[r*per:(r+1)*per], 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		m.add(samples[r*per : (r+1)*per])
		m.checkpoint()
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	m.compact()

	run := func(q RangeQuery) uint64 {
		t.Helper()
		before := tel.DownsampledBucketsRead.Value()
		assertBitIdentical(t, "resolution selection", q, engineQuery(t, s, q), m.queryRange(q))
		return tel.DownsampledBucketsRead.Value() - before
	}
	base := RangeQuery{Component: "*", Metric: "*", From: 0, To: span}

	sub := base
	sub.Agg, sub.StepMS = AggMax, 60_000 // 1m: divides neither resolution
	if n := run(sub); n != 0 {
		t.Errorf("1m step consumed %d downsampled buckets, want 0", n)
	}

	fine := base
	fine.Agg, fine.StepMS = AggMax, 300_000
	fineN := run(fine)
	if fineN == 0 {
		t.Error("aligned 5m max query consumed no downsampled buckets")
	}

	coarse := base
	coarse.Agg, coarse.StepMS = AggCount, 3_600_000
	coarseN := run(coarse)
	if coarseN == 0 {
		t.Error("aligned 1h count query consumed no downsampled buckets")
	}
	if coarseN >= fineN {
		t.Errorf("1h query read %d buckets, 5m read %d; coarser resolution should read fewer", coarseN, fineN)
	}

	for _, agg := range []Agg{AggSum, AggAvg} {
		q := base
		q.Agg, q.StepMS = agg, 300_000
		if n := run(q); n != 0 {
			t.Errorf("agg %v consumed %d downsampled buckets, want 0 (decodes raw for bit-exactness)", agg, n)
		}
	}

	unaligned := base
	unaligned.Agg, unaligned.StepMS = AggMax, 300_000
	unaligned.From, unaligned.To = 137, span+137 // grid buckets straddle query buckets
	if n := run(unaligned); n != 0 {
		t.Errorf("unaligned From consumed %d downsampled buckets, want 0 (raw fallback)", n)
	}
}

// TestDownsampleOverflowingSumConsumed: companion buckets whose values
// sum past MaxFloat64 still stand for their points under
// min/max/count/rate. Only sum and avg fold a sum, and they always
// decode.
func TestDownsampleOverflowingSumConsumed(t *testing.T) {
	samples := make([]Sample, 40) // 15s ticks: two full 5m buckets
	for i := range samples {
		samples[i] = Sample{Component: "svc", Metric: "huge", T: int64(i) * 15_000, V: 1e308}
	}
	s, tel := openCompactable(t, t.TempDir(), 1, FsyncNever, 0)
	defer s.Close()
	m := newStoreModel(0)
	for _, half := range [][]Sample{samples[:20], samples[20:]} {
		if err := s.WriteSamples(half, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		m.add(half)
		m.checkpoint()
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	m.compact()
	for _, agg := range []Agg{AggMin, AggMax, AggCount, AggRate} {
		q := RangeQuery{Component: "*", Metric: "*", From: 0, To: 600_000, Agg: agg, StepMS: 300_000}
		before := tel.DownsampledBucketsRead.Value()
		assertBitIdentical(t, "overflowing sum", q, engineQuery(t, s, q), m.queryRange(q))
		if n := tel.DownsampledBucketsRead.Value() - before; n != 2 {
			t.Errorf("%v consumed %d downsampled buckets, want 2", agg, n)
		}
	}
}

// TestDownsampleUpgradesCompanionFiles starts from a compacted block as
// older releases left it: an index.json without companions beside
// ds-300000.json and ds-3600000.json files, whose buckets also carry
// their sum ("sum_v", between "last_v" and "no_summary"). Those files are
// not read: the block serves every query bit-identically from its
// chunks. One Compact with Downsample rewrites it alone into a directory
// of meta.json, index.json and chunks.dat, whose companions coarse
// queries then read.
func TestDownsampleUpgradesCompanionFiles(t *testing.T) {
	samples := compactSamples(9, 1, 2, 480, 15_000, false) // 2 hours
	span := maxSampleT(samples) + 1
	dir := t.TempDir()
	s, _ := openCompactable(t, dir, 1, FsyncNever, 0)
	m := newStoreModel(0)
	for _, half := range [][]Sample{samples[:len(samples)/2], samples[len(samples)/2:]} {
		if err := s.WriteSamples(half, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		m.add(half)
		m.checkpoint()
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	m.compact()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Move the companions out of index.json into the files older
	// releases wrote, which json.MarshalIndent of these types reproduces
	// byte for byte.
	type bucketWithSum struct {
		Count     int     `json:"count"`
		MinT      int64   `json:"min_t"`
		MaxT      int64   `json:"max_t"`
		MinV      float64 `json:"min_v"`
		MaxV      float64 `json:"max_v"`
		FirstV    float64 `json:"first_v"`
		LastV     float64 `json:"last_v"`
		SumV      float64 `json:"sum_v"`
		NoSummary bool    `json:"no_summary,omitempty"`
	}
	type companionFile struct {
		Version      int                        `json:"version"`
		ResolutionMS int64                      `json:"resolution_ms"`
		Series       map[string][]bucketWithSum `json:"series"`
	}
	blocksDir := filepath.Join(dir, "blocks")
	before := listBlockDirs(t, blocksDir)
	if len(before) != 1 {
		t.Fatalf("blocks on disk = %v, want one", before)
	}
	blockDir := filepath.Join(blocksDir, before[0])
	var idx blockIndex
	if err := json.Unmarshal(mustReadFile(t, filepath.Join(blockDir, blockIndexName)), &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Downsampled) != len(downsampleResolutions) {
		t.Fatalf("compacted index holds %d companions, want %d", len(idx.Downsampled), len(downsampleResolutions))
	}
	for res, series := range idx.Downsampled {
		old := companionFile{Version: 1, ResolutionMS: res, Series: map[string][]bucketWithSum{}}
		for key, buckets := range series {
			for _, b := range buckets {
				var sum float64
				for _, p := range samples {
					if p.Key() == key && floorDiv(p.T, res) == floorDiv(b.MinT, res) {
						sum += p.V
					}
				}
				old.Series[key] = append(old.Series[key], bucketWithSum{b.Count, b.MinT, b.MaxT, b.MinV, b.MaxV, b.FirstV, b.LastV, sum, b.NoSummary})
			}
		}
		data, err := json.MarshalIndent(old, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(blockDir, fmt.Sprintf("ds-%d.json", res)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.MarshalIndent(blockIndex{Series: idx.Series}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(blockDir, blockIndexName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, tel := openCompactable(t, dir, 1, FsyncNever, 0)
	defer s.Close()
	fine := RangeQuery{Component: "*", Metric: "*", From: 0, To: span, Agg: AggMax, StepMS: 300_000}
	readAll := func(label string) (fineBuckets uint64) {
		t.Helper()
		for _, q := range compactQueries(span) {
			assertBitIdentical(t, label, q, engineQuery(t, s, q), m.queryRange(q))
		}
		assertSameContents(t, s, m, label)
		before := tel.DownsampledBucketsRead.Value()
		assertBitIdentical(t, label, fine, engineQuery(t, s, fine), m.queryRange(fine))
		return tel.DownsampledBucketsRead.Value() - before
	}
	if n := readAll("older companion files"); n != 0 {
		t.Fatalf("the 5m max read %d downsampled buckets from the older layout, want 0", n)
	}

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if merged := tel.CompactionMergedBlocks.Value(); merged != 1 {
		t.Fatalf("the pass retired %d blocks, want the one rewritten alone", merged)
	}
	after := listBlockDirs(t, blocksDir)
	if len(after) != 1 || after[0] == before[0] {
		t.Fatalf("blocks after the pass = %v, want one replacing %s", after, before[0])
	}
	entries, err := os.ReadDir(filepath.Join(blocksDir, after[0]))
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	if want := []string{blockChunksName, blockIndexName, blockMetaName}; !reflect.DeepEqual(files, want) {
		t.Fatalf("rewritten block holds %v, want %v", files, want)
	}
	if n := readAll("rewritten block"); n == 0 {
		t.Fatal("the 5m max read no downsampled buckets from the rewritten block")
	}
}

// compactionWorkingSet builds a store of nSeries series × 4 checkpointed
// rounds × perRound points at 1 s scrapes (dense: a handful of 5m buckets
// per series, so the companions stay small beside the points), compacts
// it, and returns the Go heap's high-water above its level just before
// the pass, the bytes the pass allocated, and the points it moved.
func compactionWorkingSet(t *testing.T, nSeries, perRound int) (highWater, allocated uint64, points int) {
	t.Helper()
	const rounds = 4
	s, _ := openCompactable(t, t.TempDir(), 2, FsyncNever, 0)
	defer s.Close()
	batch := make([]Sample, 0, nSeries*perRound)
	for r := 0; r < rounds; r++ {
		batch = batch[:0]
		for i := 0; i < nSeries; i++ {
			comp, metric := fmt.Sprintf("svc-%03d", i%64), fmt.Sprintf("metric_%d", i)
			for k := 0; k < perRound; k++ {
				batch = append(batch, Sample{
					Component: comp, Metric: metric,
					T: int64(r*perRound+k) * 1000,
					V: float64((k*7 + i*31) % 1009),
				})
			}
		}
		if err := s.WriteSamples(batch, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	batch = nil
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var peak atomic.Uint64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > peak.Load() {
				peak.Store(ms.HeapInuse)
			}
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	err := s.Compact()
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if n := s.BlockCount(); n != 1 {
		t.Fatalf("compaction left %d blocks, want 1", n)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if p := peak.Load(); p > before.HeapInuse {
		highWater = p - before.HeapInuse
	}
	return highWater, after.TotalAlloc - before.TotalAlloc, nSeries * rounds * perRound
}

// TestCompactionWorkingSetBounded pins the memory shape of a compaction
// pass (merge plus both companions): it holds one decoded series, the
// merged index and the companion maps — not the block. Quadrupling the
// series at the same points per series therefore grows the heap's
// high-water by the index and companions of the added series only, far
// below the 16 B a decoded Point costs for each added point, and the
// pass allocates a small multiple of the codec's own working set per
// point moved. A pass that decodes the run into one map before writing
// (173 B allocated per point, high-water linear in the block) fails
// both.
func TestCompactionWorkingSetBounded(t *testing.T) {
	const perRound = 1000
	small, smallAlloc, smallPts := compactionWorkingSet(t, 96, perRound)
	large, largeAlloc, largePts := compactionWorkingSet(t, 4*96, perRound)
	added := uint64(largePts - smallPts)
	t.Logf("high-water above start: %d series %.2f MiB, %d series %.2f MiB; allocated %.1f / %.1f B per point moved",
		96, float64(small)/(1<<20), 4*96, float64(large)/(1<<20),
		float64(smallAlloc)/float64(smallPts), float64(largeAlloc)/float64(largePts))
	var growth uint64
	if large > small {
		growth = large - small
	}
	if limit := 16 * added / 4; growth > limit {
		t.Errorf("heap high-water grew %.2f MiB for %d added points (%.1f B/point); a streaming pass stays under %.2f MiB",
			float64(growth)/(1<<20), added, float64(growth)/float64(added), float64(limit)/(1<<20))
	}
	if perPoint := float64(largeAlloc) / float64(largePts); perPoint > 16 {
		t.Errorf("compaction allocated %.1f B per point moved, want at most 16 (one decoded Point)", perPoint)
	}
}
