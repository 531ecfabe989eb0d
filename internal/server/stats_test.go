package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/loadgen"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// tallyWriter keeps the books a client of the two write paths can keep:
// one outcome and one stored count per response. /stats must agree with
// it whichever counters serve the fields.
type tallyWriter struct {
	c                            *Client
	writes, writeErrors, samples int64
}

func (w *tallyWriter) note(n int, err error) (int, error) {
	if err != nil {
		w.writeErrors++
	} else {
		w.writes++
	}
	w.samples += int64(n)
	return n, err
}

func (w *tallyWriter) Write(payload []byte) (int, error) { return w.note(w.c.Write(payload)) }

func (w *tallyWriter) WriteRemote(samples []tsdb.Sample) (int, error) {
	return w.note(w.c.WriteRemote(samples))
}

// auxSamples is a deterministic batch of eight series of one component,
// enough keys that a two-shard store routes some to each shard.
func auxSamples(component string, fromTick, ticks int) []tsdb.Sample {
	var out []tsdb.Sample
	for i := fromTick; i < fromTick+ticks; i++ {
		for m := 0; m < 8; m++ {
			out = append(out, tsdb.Sample{
				Component: component, Metric: fmt.Sprintf("m%d", m),
				T: int64(i) * 500, V: float64((i*(m+3))%17) + float64(m),
			})
		}
	}
	return out
}

// walSegmentCap is the store's WAL segment roll threshold: a record
// that would take the open segment past it rolls to the next one first.
const walSegmentCap = 8 << 20

// fillWAL writes one-sample series with long names through w until the
// store's open WAL segment has room for target more bytes, give or take
// tolerance. The store must hold one segment.
func fillWAL(t *testing.T, st *tsdb.Sharded, w *tallyWriter, target, tolerance int64) {
	t.Helper()
	room := func() int64 {
		stats := st.Stats()
		if stats.WALSegments != 1 {
			t.Fatalf("store holds %d WAL segments, want 1", stats.WALSegments)
		}
		return walSegmentCap - stats.WALBytes
	}
	overhead := int64(64) // a one-sample record's bytes beyond its name, refined per write
	for i := 0; ; i++ {
		before := room()
		need := before - target
		if need < -tolerance {
			t.Fatalf("WAL segment has room for %d bytes, want %d", before, target)
		}
		if need <= tolerance {
			return
		}
		prefix := fmt.Sprintf("f%d-", i)
		metric := prefix + strings.Repeat("x", int(min(max(need-overhead-int64(len(prefix)), 1), 1<<20)))
		if _, err := w.WriteRemote([]tsdb.Sample{{Component: "fill", Metric: metric, T: 0, V: 1}}); err != nil {
			t.Fatal(err)
		}
		overhead = before - room() - int64(len(metric))
	}
}

// TestStatsScriptedLife drives one scripted life through both ingest
// protocols — accepted batches, rejected payloads, a partial storage
// failure on each protocol whose stored half lands behind the previous
// window's end, three pipeline cycles — and compares /stats field by
// field with the client-side books and the script's own cycle count.
func TestStatsScriptedLife(t *testing.T) {
	dir := t.TempDir()
	opts := incrementalOptions(2)
	opts.DataDir, opts.Fsync, opts.FlushInterval, opts.CompactInterval = dir, "never", -1, -1
	s, _, c := newTestServer(t, opts)
	w := &tallyWriter{c: c}
	a, err := app.New(chainSpec(), 41)
	if err != nil {
		t.Fatal(err)
	}
	pattern := loadgen.Random(19, 100, 100, 1500)
	run := func() *RunInfo {
		t.Helper()
		info, err := c.RunPipeline()
		if err != nil {
			t.Fatal(err)
		}
		return info
	}

	driveChunk(t, a, w, pattern[:80])
	if _, err := w.WriteRemote(auxSamples("aux", 0, 80)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("not line protocol")); err == nil {
		t.Fatal("malformed line protocol was accepted")
	}
	if _, err := w.WriteRemote([]tsdb.Sample{{Component: "aux", Metric: "m0", T: tsdb.MaxTimestampMS + 1, V: 1}}); err == nil {
		t.Fatal("out-of-range remote-write timestamp was accepted")
	}
	run()
	driveChunk(t, a, w, pattern[80:])
	run()

	// Kill the store's WAL directory: replaced by a file, it leaves the
	// open segment's handle working, but the roll to the next segment
	// cannot create it. Each protocol then sends a batch of long-named
	// series sized against the segment's room, so that shard 0's record
	// fits and shard 1's, which the small batch appends next, rolls and
	// fails. The second batch's names are shorter: it must fit in what
	// the first left.
	walDir := filepath.Join(dir, "wal")
	if err := os.Rename(walDir, walDir+".gone"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for i, p := range []struct {
		name    string
		nameLen int
		write   func([]tsdb.Sample) (int, error)
	}{
		{"line protocol", 32 << 10, func(b []tsdb.Sample) (int, error) { return w.Write(tsdb.EncodeLineProtocol(b)) }},
		{"remote write", 1 << 10, w.WriteRemote},
	} {
		batch := auxSamples(fmt.Sprintf("late%d", i), 90, 1)
		for j := range batch {
			batch[j].Metric += strings.Repeat("x", p.nameLen)
		}
		// Every record costs its series' names plus a few dozen bytes:
		// with 1 to 7 of the 8 series on shard 0, shard 0's record is at
		// most 7 names long and the batch's at least 8.
		fillWAL(t, s.store, w, int64(p.nameLen)*15/2, int64(p.nameLen)/4)
		if n, err := p.write(batch); err == nil || n == 0 || n == len(batch) {
			t.Fatalf("%s through a half-dead store: stored %d of %d, err %v; want a partial failure", p.name, n, len(batch), err)
		}
	}
	if err := s.store.Checkpoint(); err == nil {
		t.Fatal("checkpoint rolled a WAL segment into a directory that is gone")
	}
	last := run()

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name      string
		got, want int64
	}{
		{"writes", st.Writes, w.writes},
		{"write_errors", st.WriteErrors, w.writeErrors},
		{"samples", st.Samples, w.samples},
		{"points", int64(st.Points), w.samples},
		{"generation", st.Generation, 3},
		{"pipeline_runs", st.PipelineRuns, 3},
		{"checkpoint_failures", int64(st.CheckpointFailures), 1},
		{"last_run.generation", st.LastRun.Generation, last.Generation},
	} {
		if f.got != f.want {
			t.Errorf("/stats %s = %d, want %d", f.name, f.got, f.want)
		}
	}
	if w.writeErrors != 4 || w.writes < 80 {
		t.Fatalf("script lost its subject: %d accepted and %d failed writes, want >= 80 and 4", w.writes, w.writeErrors)
	}
	if !st.Incremental || !st.Durable || st.LastError != "" {
		t.Errorf("/stats incremental=%v durable=%v last_error=%q", st.Incremental, st.Durable, st.LastError)
	}
}
