package tsdb

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/sieve-microservices/sieve/internal/telemetry"
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
	reg := telemetry.NewRegistry()
	tel := NewStoreTelemetry(reg)
	s.SetTelemetry(tel)

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

// TestTelemetryEquivalence pins that installing telemetry changes no
// query bytes: the same workload against an instrumented and an
// uninstrumented durable store answers /query-range-shaped requests
// byte-identically (JSON-encoded results compared).
func TestTelemetryEquivalence(t *testing.T) {
	build := func(withTel bool) (*Sharded, func()) {
		dir := t.TempDir()
		s, err := OpenSharded(3, DurabilityOptions{Dir: dir, FlushInterval: -1})
		if err != nil {
			t.Fatalf("OpenSharded: %v", err)
		}
		if withTel {
			s.SetTelemetry(NewStoreTelemetry(telemetry.NewRegistry()))
		}
		fillStore(t, s, 3, blockSize+37)
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		fillStore(t, s, 2, 41) // post-checkpoint tail data
		return s, func() { s.Close() }
	}
	plain, closePlain := build(false)
	defer closePlain()
	instr, closeInstr := build(true)
	defer closeInstr()

	queries := []RangeQuery{
		{Component: "*", Metric: "*", From: 0, To: 1 << 40},
		{Component: "comp*", Metric: "cpu", From: 1000, To: 30000},
		{Component: "*", Metric: "*", From: 0, To: 1 << 40, Agg: AggMax, StepMS: 5000},
		{Component: "*", Metric: "*", From: 0, To: 1 << 40, Agg: AggAvg, StepMS: 2500},
		{Component: "*", Metric: "*", From: 0, To: 1 << 40, Agg: AggRate, StepMS: 10000},
	}
	for _, q := range queries {
		a, err := plain.QueryRange(context.Background(), q)
		if err != nil {
			t.Fatalf("plain QueryRange(%+v): %v", q, err)
		}
		b, err := instr.QueryRange(context.Background(), q)
		if err != nil {
			t.Fatalf("instrumented QueryRange(%+v): %v", q, err)
		}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Fatalf("telemetry changed query bytes for %+v:\nplain: %s\ninstr: %s", q, aj, bj)
		}
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
