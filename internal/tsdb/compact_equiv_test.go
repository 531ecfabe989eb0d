package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Compaction-equivalence suite: /query_range results (raw and every
// aggregation, fine and coarse steps) must be byte-identical before and
// after compaction, with downsampled companions live, across shard
// counts and fsync policies, including NaN chunks and retention. The
// reference is a second durable store fed the identical write/checkpoint
// sequence but never compacted, plus the naive decode-everything
// reference for the final state.

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

// assertBitIdentical compares two result sets point by point on the
// float bit pattern (NaN defeats reflect.DeepEqual, and bit identity is
// the actual contract).
func assertBitIdentical(t *testing.T, label string, q RangeQuery, got, want []SeriesResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %+v: %s != %s", label, q, describeResults(got), describeResults(want))
	}
	for i := range got {
		if got[i].Component != want[i].Component || got[i].Metric != want[i].Metric {
			t.Fatalf("%s %+v: series %d is %s/%s, want %s/%s",
				label, q, i, got[i].Component, got[i].Metric, want[i].Component, want[i].Metric)
		}
		if len(got[i].Points) != len(want[i].Points) {
			t.Fatalf("%s %+v: %s/%s has %d points, want %d",
				label, q, got[i].Component, got[i].Metric, len(got[i].Points), len(want[i].Points))
		}
		for j := range got[i].Points {
			g, w := got[i].Points[j], want[i].Points[j]
			if g.T != w.T || math.Float64bits(g.V) != math.Float64bits(w.V) {
				t.Fatalf("%s %+v: %s/%s point %d: got (%d, %x), want (%d, %x)",
					label, q, got[i].Component, got[i].Metric, j,
					g.T, math.Float64bits(g.V), w.T, math.Float64bits(w.V))
			}
		}
	}
}

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
	span := maxSampleT(samples)
	queries := compactQueries(span)

	s, tel := openCompactable(t, t.TempDir(), shards, fsync, 0)
	ref, _ := openCompactable(t, t.TempDir(), shards, fsync, 0)

	compare := func(label string) {
		t.Helper()
		for _, q := range queries {
			assertBitIdentical(t, label, q, engineQuery(t, s, q), engineQuery(t, ref, q))
		}
	}

	// 12 checkpoint rounds build many small blocks on both stores;
	// compaction fires mid-history (after rounds 4 and 8), so later
	// checkpoints land after merged blocks and the list order logic is
	// exercised, not just the compact-everything-at-the-end case.
	const rounds = 12
	per := len(samples) / rounds
	for r := 0; r < rounds; r++ {
		batch := samples[r*per : (r+1)*per]
		for _, st := range []*Sharded{s, ref} {
			if err := st.WriteSamples(batch, 0); err != nil {
				t.Fatal(err)
			}
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if r == 4 || r == 8 {
			if err := s.Compact(); err != nil {
				t.Fatalf("compact after round %d: %v", r, err)
			}
			compare(fmt.Sprintf("mid-history compact (round %d)", r))
		}
	}
	// A tail beyond the last checkpoint stays in shard memory on both
	// sides: compaction must compose with the memory read path too.
	tail := samples[rounds*per:]
	for _, st := range []*Sharded{s, ref} {
		if err := st.WriteSamples(tail, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	compare("final compact + memory tail")

	// The final state must also match the naive decode-everything
	// reference, not just the twin.
	for _, q := range queries[:12] {
		assertBitIdentical(t, "naive reference", q, engineQuery(t, s, q), refQueryRange(t, s, q))
	}

	// The pass must have actually merged blocks and the coarse queries
	// must actually have consumed downsampled buckets — otherwise this
	// suite silently degrades into testing nothing.
	if got, want := s.BlockCount(), ref.BlockCount(); got >= want {
		t.Errorf("compaction did not reduce blocks: %d vs uncompacted %d", got, want)
	}
	if tel.DownsampledBucketsRead.Value() == 0 {
		t.Error("no downsampled buckets were consumed by the coarse-step queries")
	}

	// Reopen both stores: merged blocks, companions, and checkpoint
	// blocks must reload into the same bytes.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := openCompactable(t, s.DataDir(), shards, fsync, 0)
	ref2, _ := openCompactable(t, ref.DataDir(), shards, fsync, 0)
	defer s2.Close()
	defer ref2.Close()
	for _, q := range queries {
		assertBitIdentical(t, "reopened", q, engineQuery(t, s2, q), engineQuery(t, ref2, q))
	}
}

// TestCompactionEquivalenceRetention runs the suite with a retention
// horizon in play. Retention is block-granular, so a merged block keeps
// its oldest points alive until its newest point expires — the compacted
// store can legitimately retain MORE history than the uncompacted twin.
// The contracts pinned here: above the final horizon (data both stores
// must fully retain) results are byte-identical to the twin, and over
// the full range the compacted store stays byte-identical to its own
// naive decode-everything reference, with Stats.Points matching what it
// actually serves.
func TestCompactionEquivalenceRetention(t *testing.T) {
	samples := compactSamples(77, 3, 2, 600, 10_000, true)
	span := maxSampleT(samples)
	const retention = 45 * 60_000 // 45m of a ~100m span: old blocks expire mid-test
	s, _ := openCompactable(t, t.TempDir(), 4, FsyncNever, retention)
	ref, _ := openCompactable(t, t.TempDir(), 4, FsyncNever, retention)
	defer s.Close()
	defer ref.Close()

	const rounds = 10
	per := len(samples) / rounds
	for r := 0; r < rounds; r++ {
		batch := samples[r*per : (r+1)*per]
		for _, st := range []*Sharded{s, ref} {
			if err := st.WriteSamples(batch, 0); err != nil {
				t.Fatal(err)
			}
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if r%3 == 2 {
			if err := s.Compact(); err != nil {
				t.Fatalf("compact after round %d: %v", r, err)
			}
		}
	}
	// Full-range self-consistency: engine vs naive reference on the
	// compacted store (whatever retention left behind).
	for _, q := range compactQueries(span) {
		assertBitIdentical(t, "retention naive", q, engineQuery(t, s, q), refQueryRange(t, s, q))
	}
	// Twin equality above the horizon: every surviving point there lives
	// in a block with MaxT >= horizon, which neither store has dropped.
	horizon := span - retention
	for _, q := range compactQueries(span - horizon) {
		q.From += horizon
		q.To += horizon
		assertBitIdentical(t, "retention twin", q, engineQuery(t, s, q), engineQuery(t, ref, q))
	}
	// Points accounting matches what each store actually serves.
	for name, st := range map[string]*Sharded{"compacted": s, "twin": ref} {
		served := 0
		for _, r := range engineQuery(t, st, RangeQuery{Component: "*", Metric: "*", From: math.MinInt64, To: math.MaxInt64}) {
			served += len(r.Points)
		}
		if got := st.Stats().Points; got != served {
			t.Errorf("%s: Stats.Points = %d, serves %d", name, got, served)
		}
	}
}

// TestCompactionRetentionAccounting pins Stats.Points and retention
// behavior when compaction has replaced the original publish-order block
// list: the merged block expires as one unit, its points are subtracted
// exactly once, and the accounting survives a reopen. (Block-granular
// retention previously only ever saw checkpoint-published blocks; a
// merged block aging past the horizon is the new shape.)
func TestCompactionRetentionAccounting(t *testing.T) {
	dir := t.TempDir()
	const retention = 200_000 // wider than the ingest span: nothing drops until the final advance
	s, _ := openCompactable(t, dir, 2, FsyncNever, retention)
	written := 0
	for i := 0; i < 10; i++ {
		batch := make([]Sample, 0, 20)
		for j := 0; j < 20; j++ {
			batch = append(batch, Sample{
				Component: "svc", Metric: fmt.Sprintf("m%d", j%4),
				T: int64(i)*10_000 + int64(j)*400, V: float64(i * j),
			})
		}
		if err := s.WriteSamples(batch, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		written += len(batch)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Compaction moves points between blocks but never changes the set.
	if got := s.Stats().Points; got != written {
		t.Fatalf("Stats.Points after compaction = %d, want %d", got, written)
	}
	if got := s.BlockCount(); got != 1 {
		t.Fatalf("BlockCount after compaction = %d, want 1 merged block", got)
	}

	// Advance the high-water mark past the merged block's horizon: the
	// next checkpoint's retention pass must drop it as one unit.
	if err := s.WriteSamples([]Sample{{Component: "svc", Metric: "m0", T: 400_000, V: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.BlockCount(); got != 1 {
		t.Fatalf("BlockCount after retention = %d, want 1 (fresh block only)", got)
	}
	if got := s.Stats().Points; got != 1 {
		t.Fatalf("Stats.Points after retention = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, _ := openCompactable(t, dir, 2, FsyncNever, retention)
	defer re.Close()
	if got := re.Stats().Points; got != 1 {
		t.Fatalf("Stats.Points after reopen = %d, want 1", got)
	}
}
