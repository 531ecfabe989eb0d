package server

import (
	"fmt"
	"os"
	"path/filepath"
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

// TestStatsScriptedLife drives one scripted life through both ingest
// protocols — accepted batches, rejected payloads, a partial storage
// failure on each protocol whose stored half lands behind the cached
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

	// Kill shard 0's WAL: with its directory replaced by a file the
	// checkpoint's segment roll closes the open segment and cannot create
	// the next one, so every later append routed to shard 0 fails while
	// shard 1 keeps storing.
	shard0 := filepath.Join(dir, "wal", "shard-0000")
	if err := os.Rename(shard0, shard0+".gone"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shard0, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.store.Checkpoint(); err == nil {
		t.Fatal("checkpoint rolled a WAL segment into a directory that is gone")
	}
	for name, write := range map[string]func([]tsdb.Sample) (int, error){
		"line protocol": func(b []tsdb.Sample) (int, error) { return w.Write(tsdb.EncodeLineProtocol(b)) },
		"remote write":  w.WriteRemote,
	} {
		batch := auxSamples("late", 90, 1)
		if n, err := write(batch); err == nil || n == 0 || n == len(batch) {
			t.Fatalf("%s through a half-dead store: stored %d of %d, err %v; want a partial failure", name, n, len(batch), err)
		}
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
		{"full_rebuilds", st.FullRebuilds, 2},
		{"tail_queries", st.TailQueries, 1},
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
	if !last.Assembly.FullRebuild || last.Assembly.RebuildReason != "late write" {
		t.Errorf("third cycle: %+v, want the rebuild the late batches cause", last.Assembly)
	}
}
