package tsdb

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// fillStore writes a deterministic workload: enough points per series
// to seal several chunks, so scans exercise skip/summarize/decode.
func fillStore(t *testing.T, s *Sharded, seriesN, ptsPerSeries int) {
	t.Helper()
	for i := 0; i < seriesN; i++ {
		samples := make([]Sample, 0, ptsPerSeries)
		for p := 0; p < ptsPerSeries; p++ {
			samples = append(samples, Sample{
				Component: fmt.Sprintf("comp%d", i),
				Metric:    "cpu",
				T:         int64(p * 100),
				V:         float64(p%17) + float64(i),
			})
		}
		if err := s.WriteSamples(samples, 16*len(samples)); err != nil {
			t.Fatalf("WriteSamples: %v", err)
		}
	}
}

// TestStoreTelemetryCountersMove pins that every storage instrument
// actually moves: WAL append/fsync latency, checkpoint duration and
// drained points, block publishes, retention drops, and the chunk
// skip/summarize/decode split.
func TestStoreTelemetryCountersMove(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(2, DurabilityOptions{
		Dir: dir, Fsync: FsyncAlways, FlushInterval: -1, RetentionMS: 1,
	})
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	defer s.Close()
	tel := s.Telemetry()

	fillStore(t, s, 4, 3*blockSize/2)

	if tel.WALAppendSeconds.Count() == 0 {
		t.Fatalf("WAL append histogram did not move")
	}
	if tel.WALFsyncSeconds.Count() == 0 {
		t.Fatalf("WAL fsync histogram did not move (FsyncAlways)")
	}
	if s.WALSegments() == 0 {
		t.Fatalf("WALSegments = 0, want > 0")
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if tel.CheckpointSeconds.Count() != 1 {
		t.Fatalf("checkpoint histogram count = %d, want 1", tel.CheckpointSeconds.Count())
	}
	wantPts := uint64(4 * 3 * blockSize / 2)
	if got := tel.CheckpointPoints.Value(); got != wantPts {
		t.Fatalf("checkpoint points = %d, want %d", got, wantPts)
	}
	if tel.BlockPublishes.Value() != 1 {
		t.Fatalf("block publishes = %d, want 1", tel.BlockPublishes.Value())
	}

	// An aggregated query over sealed data must consume summaries; a
	// partial-range raw query must decode; a disjoint range must skip.
	if _, err := s.QueryRange(context.Background(), RangeQuery{
		Component: "*", Metric: "*", From: 0, To: 1 << 40, Agg: AggMax, StepMS: 1 << 41,
	}); err != nil {
		t.Fatalf("QueryRange(max): %v", err)
	}
	if tel.ChunksSummarized.Value() == 0 {
		t.Fatalf("no chunks summarized by pushed-down max")
	}
	if _, err := s.QueryRange(context.Background(), RangeQuery{
		Component: "comp0", Metric: "*", From: 50, To: 200,
	}); err != nil {
		t.Fatalf("QueryRange(raw): %v", err)
	}
	if tel.ChunksDecoded.Value() == 0 {
		t.Fatalf("no chunks decoded by partial raw query")
	}

	// Skip counting: a fresh series with two sealed in-memory chunks,
	// queried over a range overlapping only the first, skips the second.
	samples := make([]Sample, 0, 2*blockSize)
	for p := 0; p < 2*blockSize; p++ {
		samples = append(samples, Sample{Component: "fresh", Metric: "cpu", T: int64(p * 100), V: 1})
	}
	if err := s.WriteSamples(samples, 16*len(samples)); err != nil {
		t.Fatalf("WriteSamples(fresh): %v", err)
	}
	if _, err := s.QueryRange(context.Background(), RangeQuery{
		Component: "fresh", Metric: "cpu", From: 0, To: 200,
	}); err != nil {
		t.Fatalf("QueryRange(fresh): %v", err)
	}
	if tel.ChunksSkipped.Value() == 0 {
		t.Fatalf("no chunks skipped by narrow-range query")
	}

	// Retention: write far-future points so every published block falls
	// behind the 1ms horizon, then checkpoint to enforce it.
	if err := s.WriteSamples([]Sample{{Component: "comp0", Metric: "cpu", T: 1 << 50, V: 1}}, 16); err != nil {
		t.Fatalf("WriteSamples(future): %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if tel.RetentionDroppedBlocks.Value() == 0 {
		t.Fatalf("retention dropped no blocks")
	}
}

// TestStoreBornInstrumented pins that a store needs no installation
// step: straight out of NewSharded / OpenSharded a write, a checkpoint,
// a compaction pass with Downsample and one aggregated query whose range
// covers one in-memory chunk, cuts another and misses a third move the
// instruments. A hard-stopped durable life then reopens with every
// counter at zero — the set belongs to the store, not the process —
// and replaying its WAL is not counted as bytes appended.
func TestStoreBornInstrumented(t *testing.T) {
	// Three sealed chunks per series at 100ms spacing.
	const pts = 3 * blockSize
	chunkFates := func(t *testing.T, s *Sharded) {
		t.Helper()
		tel := s.Telemetry()
		if _, err := s.QueryRange(context.Background(), RangeQuery{
			Component: "comp0", Metric: "cpu", From: 50, To: 2 * blockSize * 100, Agg: AggMax, StepMS: 1 << 41,
		}); err != nil {
			t.Fatalf("QueryRange: %v", err)
		}
		if d, sm, sk := tel.ChunksDecoded.Value(), tel.ChunksSummarized.Value(), tel.ChunksSkipped.Value(); d == 0 || sm == 0 || sk == 0 {
			t.Fatalf("chunk fates decoded=%d summarized=%d skipped=%d, want all > 0", d, sm, sk)
		}
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("memory/shards=%d", shards), func(t *testing.T) {
			s := NewSharded(shards)
			fillStore(t, s, 3, pts)
			chunkFates(t, s)
			if got := s.Telemetry().WALBytesWritten.Value(); got != 0 {
				t.Fatalf("in-memory store wrote %d WAL bytes", got)
			}
		})
		t.Run(fmt.Sprintf("durable/shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			opts := DurabilityOptions{Dir: dir, Fsync: FsyncNever, FlushInterval: -1, CompactInterval: -1, Downsample: true}
			s, err := OpenSharded(shards, opts)
			if err != nil {
				t.Fatalf("OpenSharded: %v", err)
			}
			tel := s.Telemetry()
			fillStore(t, s, 3, pts)
			if tel.WALAppendSeconds.Count() == 0 || tel.WALBytesWritten.Value() == 0 {
				t.Fatalf("WAL appends=%d bytes=%d after a write, want both > 0",
					tel.WALAppendSeconds.Count(), tel.WALBytesWritten.Value())
			}
			chunkFates(t, s)
			fates := [3]uint64{tel.ChunksDecoded.Value(), tel.ChunksSummarized.Value(), tel.ChunksSkipped.Value()}
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if got := tel.CheckpointPoints.Value(); got != 3*pts {
				t.Fatalf("checkpoint points = %d, want %d", got, 3*pts)
			}
			if got := tel.BlockPublishes.Value(); got != 1 {
				t.Fatalf("block publishes = %d, want 1", got)
			}
			if err := s.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			if tel.CompactionsRun.Value() != 1 || tel.DownsampleSeconds.Count() == 0 {
				t.Fatalf("compactions=%d downsample builds=%d, want 1 and > 0",
					tel.CompactionsRun.Value(), tel.DownsampleSeconds.Count())
			}
			// The checkpoint and companion scans above are not queries.
			if got := [3]uint64{tel.ChunksDecoded.Value(), tel.ChunksSummarized.Value(), tel.ChunksSkipped.Value()}; got != fates {
				t.Fatalf("background scans counted as query chunk fates: %v -> %v (decoded, summarized, skipped)", fates, got)
			}

			// Hard stop with one batch only in the WAL (no Checkpoint, no
			// Close), then a second life on the same directory.
			tail := []Sample{{Component: "comp0", Metric: "cpu", T: pts * 100, V: 1}}
			if err := s.WriteSamples(tail, 16); err != nil {
				t.Fatalf("WriteSamples(tail): %v", err)
			}
			re, err := OpenSharded(shards, opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			if got := re.Stats().Points; got != 3*pts+1 {
				t.Fatalf("recovered %d points, want %d (block + replayed tail)", got, 3*pts+1)
			}
			if re.Telemetry() == tel || re.Registry() == s.Registry() {
				t.Fatalf("second life shares the first life's instruments")
			}
			for _, r := range re.Registry().Readings() {
				if r.Value != 0 {
					t.Errorf("reopened store starts with %s = %v, want 0", r.Name, r.Value)
				}
			}
		})
	}
}

// TestTwoStoresDoNotShareInstruments is the lab.Capture store beside a
// server store: two stores in one process register the same metric
// names on their own registries (no duplicate-registration panic), and
// traffic on one leaves the other's untouched.
func TestTwoStoresDoNotShareInstruments(t *testing.T) {
	a, b := NewSharded(2), NewSharded(2)
	before := b.Registry().Readings()
	if len(before) == 0 || !reflect.DeepEqual(before, a.Registry().Readings()) {
		t.Fatalf("fresh stores expose different instruments:\na: %v\nb: %v", a.Registry().Readings(), before)
	}
	fillStore(t, a, 2, 2*blockSize)
	if _, err := a.QueryRange(context.Background(), RangeQuery{Component: "*", Metric: "*", From: 50, To: 200}); err != nil {
		t.Fatalf("QueryRange: %v", err)
	}
	if a.Telemetry().ChunksDecoded.Value() == 0 {
		t.Fatalf("store a's query moved nothing")
	}
	if after := b.Registry().Readings(); !reflect.DeepEqual(before, after) {
		t.Fatalf("traffic on a changed b's registry:\nbefore: %v\nafter:  %v", before, after)
	}
}

// TestIngestParsedMatchesWrite pins that the server's parse-first path
// stores exactly what Write stores.
func TestIngestParsedMatchesWrite(t *testing.T) {
	payload := EncodeLineProtocol([]Sample{
		{Component: "web", Metric: "cpu", T: 1000, V: 0.5},
		{Component: "web", Metric: "cpu", T: 2000, V: 0.75},
		{Component: "db", Metric: "mem", T: 1500, V: 3},
	})
	a := NewSharded(2)
	na, err := a.Write(payload)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	b := NewSharded(2)
	samples, err := ParseLineProtocol(payload)
	if err != nil {
		t.Fatalf("ParseLineProtocol: %v", err)
	}
	nb, err := b.IngestParsed(samples, len(payload), time.Now())
	if err != nil {
		t.Fatalf("IngestParsed: %v", err)
	}
	if na != nb {
		t.Fatalf("stored counts differ: Write=%d IngestParsed=%d", na, nb)
	}
	qa, _ := queryMatch(a, "*", "*", 0, 1<<40)
	qb, _ := queryMatch(b, "*", "*", 0, 1<<40)
	aj, _ := json.Marshal(qa)
	bj, _ := json.Marshal(qb)
	if string(aj) != string(bj) {
		t.Fatalf("IngestParsed stored different data:\nWrite: %s\nIngestParsed: %s", aj, bj)
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Points != sb.Points || sa.NetworkInBytes != sb.NetworkInBytes {
		t.Fatalf("accounting differs: %+v vs %+v", sa, sb)
	}
}
