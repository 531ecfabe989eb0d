package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/loadgen"
	"github.com/sieve-microservices/sieve/internal/metrics"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// chainGraph is the static topology of chainSpec, configured identically
// on every server under comparison so Granger testing runs on both.
func chainGraph() *callgraph.Graph {
	g := callgraph.New()
	g.AddCall("lb", "api", 100)
	g.AddCall("api", "db", 100)
	return g
}

// incrementalOptions are the equivalence-suite server options: window
// ends aligned to the grid.
func incrementalOptions(shards int) Options {
	return Options{
		AppName:     "chain",
		Shards:      shards,
		WindowMS:    64 * 500, // the shortest window New accepts
		CallGraph:   chainGraph(),
		Incremental: true,
	}
}

// driveChunk advances the app by one pattern chunk, shipping scrapes
// over c (a Client's /write). The same app instance keeps its clock across
// chunks, so an incremental server sees a continuous stream.
func driveChunk(t *testing.T, a *app.App, c tsdb.Writer, chunk loadgen.Pattern) {
	t.Helper()
	coll, err := metrics.NewCollector(c, a.Registries()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadgen.DriveCollector(context.Background(), a, chunk, coll); err != nil {
		t.Fatal(err)
	}
}

// marshaledArtifact returns the published artifact's bytes, as the
// current publication's GET /artifact body carries them (encoding the
// body if nothing has read it yet).
func marshaledArtifact(t *testing.T, s *Server) []byte {
	t.Helper()
	p := s.pub.Load()
	if p == nil {
		t.Fatal("no artifact published")
	}
	body, err := s.artifactBody(p)
	if err != nil {
		t.Fatal(err)
	}
	var env ArtifactEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	return env.Artifact
}

// referenceArtifact replays the full ingest prefix into a fresh batch
// store (the deterministic simulators reproduce the exact byte stream)
// and runs ONE from-scratch pipeline cycle on it, returning the
// marshaled artifact and run info. opts should match the incremental
// server's analysis knobs; the reference is always cold.
func referenceArtifact(t *testing.T, opts Options, pattern loadgen.Pattern, seed int64) ([]byte, *RunInfo) {
	t.Helper()
	opts.DataDir = "" // reference runs in memory
	ref, _, c := newTestServer(t, opts)
	a, err := app.New(chainSpec(), seed)
	if err != nil {
		t.Fatal(err)
	}
	driveChunk(t, a, c, pattern)
	info, err := ref.RunPipelineOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return marshaledArtifact(t, ref), info
}

// TestIncrementalEquivalence is the suite's core pin: the artifact (and
// its marshaled bytes) published after K incremental cycles must
// bit-equal a from-scratch run over the same window — at multiple shard
// counts.
func TestIncrementalEquivalence(t *testing.T) {
	// The first chunk fills the 64-step window; later chunks slide it by
	// 20 steps, keeping a two-thirds overlap.
	const seed = 11
	cuts := []int{80, 100, 120, 140}
	pattern := loadgen.Random(5, cuts[len(cuts)-1], 100, 1500)

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, _, c := newTestServer(t, incrementalOptions(shards))
			a, err := app.New(chainSpec(), seed)
			if err != nil {
				t.Fatal(err)
			}
			prev := 0
			for cycle, cut := range cuts {
				driveChunk(t, a, c, pattern[prev:cut])
				prev = cut
				info, err := s.RunPipelineOnce(context.Background())
				if err != nil {
					t.Fatalf("cycle %d: %v", cycle, err)
				}
				got := marshaledArtifact(t, s)
				want, refInfo := referenceArtifact(t, incrementalOptions(1), pattern[:cut], seed)
				if refInfo.Start != info.Start || refInfo.End != info.End {
					t.Fatalf("cycle %d: window mismatch: incremental [%d,%d), reference [%d,%d)",
						cycle, info.Start, info.End, refInfo.Start, refInfo.End)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("cycle %d (shards=%d): incremental artifact diverged from from-scratch run (%d vs %d bytes)",
						cycle, shards, len(got), len(want))
				}
			}
		})
	}
}

// TestIncrementalRerunWithoutNewData: a second POST /run over an
// unchanged window still publishes (the generation moves), and the
// artifact bytes stay identical.
func TestIncrementalRerunWithoutNewData(t *testing.T) {
	s, _, c := newTestServer(t, incrementalOptions(2))
	a, err := app.New(chainSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	driveChunk(t, a, c, loadgen.Random(5, 100, 100, 1500))
	firstInfo, err := c.RunPipeline()
	if err != nil {
		t.Fatal(err)
	}
	first := marshaledArtifact(t, s)

	info, err := c.RunPipeline()
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != firstInfo.Generation+1 {
		t.Fatalf("generation %d after %d, want the re-run to publish the next one", info.Generation, firstInfo.Generation)
	}
	if !bytes.Equal(first, marshaledArtifact(t, s)) {
		t.Fatal("unchanged window produced different artifact bytes")
	}
}

// TestIncrementalLateWrite: a sample written behind the previous
// cycle's window end — through either HTTP protocol or straight into the
// store — is read by the next cycle, so its artifact equals a
// from-scratch run over the same writes.
func TestIncrementalLateWrite(t *testing.T) {
	const seed = 17
	cuts := []int{80, 100, 120, 140}
	pattern := loadgen.Random(9, cuts[len(cuts)-1], 100, 1500)
	routes := map[string]func(*Server, *Client, tsdb.Sample) error{
		"write": func(_ *Server, c *Client, late tsdb.Sample) error {
			_, err := c.Write(tsdb.EncodeLineProtocol([]tsdb.Sample{late}))
			return err
		},
		"remote write": func(_ *Server, c *Client, late tsdb.Sample) error {
			_, err := c.WriteRemote([]tsdb.Sample{late})
			return err
		},
		"store": func(s *Server, _ *Client, late tsdb.Sample) error {
			return s.Store().WriteSamples([]tsdb.Sample{late}, 0)
		},
	}
	// Where the late sample lands, given the previous window's end.
	places := map[string]func(prevEnd int64) tsdb.Sample{
		"cached series": func(prevEnd int64) tsdb.Sample {
			return tsdb.Sample{Component: "api", Metric: "api_rate", T: prevEnd - 5000, V: 1e6}
		},
		"born series": func(prevEnd int64) tsdb.Sample {
			return tsdb.Sample{Component: "api", Metric: "born_late", T: prevEnd - 5000, V: 3}
		},
		// Outside every window.
		"before the window": func(int64) tsdb.Sample {
			return tsdb.Sample{Component: "api", Metric: "api_rate", T: 1000, V: 1e6}
		},
	}
	// reference is a cold server fed the same writes in the same order.
	reference := func(t *testing.T, late tsdb.Sample) []byte {
		ref, _, c := newTestServer(t, incrementalOptions(1))
		a, err := app.New(chainSpec(), seed)
		if err != nil {
			t.Fatal(err)
		}
		driveChunk(t, a, c, pattern[:cuts[1]])
		if err := ref.Store().WriteSamples([]tsdb.Sample{late}, 0); err != nil {
			t.Fatal(err)
		}
		driveChunk(t, a, c, pattern[cuts[1]:cuts[2]])
		if _, err := ref.RunPipelineOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		return marshaledArtifact(t, ref)
	}

	for _, shards := range []int{1, 4} {
		for route, write := range routes {
			for place, at := range places {
				t.Run(fmt.Sprintf("shards=%d/%s/%s", shards, route, place), func(t *testing.T) {
					s, _, c := newTestServer(t, incrementalOptions(shards))
					a, err := app.New(chainSpec(), seed)
					if err != nil {
						t.Fatal(err)
					}
					var late tsdb.Sample
					prev := 0
					for cycle, cut := range cuts {
						driveChunk(t, a, c, pattern[prev:cut])
						prev = cut
						info, err := s.RunPipelineOnce(context.Background())
						if err != nil {
							t.Fatalf("cycle %d: %v", cycle, err)
						}
						switch cycle {
						case 1:
							late = at(info.End)
							if err := write(s, c, late); err != nil {
								t.Fatal(err)
							}
						case 2:
							if !bytes.Equal(marshaledArtifact(t, s), reference(t, late)) {
								t.Fatal("cycle after a late write diverged from a from-scratch run over the same writes")
							}
						}
					}
				})
			}
		}
	}
}

// TestIncrementalRestartMidSequence: checkpoint, hard-stop (no Close),
// and reopen the durable store mid-sequence, at a different shard count.
// The revived server must end up bit-equal to a from-scratch run over
// the recovered data plus the post-restart tail.
func TestIncrementalRestartMidSequence(t *testing.T) {
	// Chunk cuts keep the post-restart window overlapping the recovered
	// data, so the revived pipeline genuinely reads what the store
	// replayed, not just fresh ingest.
	const seed = 23
	cuts := []int{80, 100}
	dir := t.TempDir()
	pattern := loadgen.Random(13, 120, 100, 1500)

	opts := incrementalOptions(3)
	opts.DataDir, opts.Fsync, opts.FlushInterval = dir, "never", -1
	s1, hs1, c1 := newTestServer(t, opts)
	a, err := app.New(chainSpec(), seed)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for cycle, cut := range cuts {
		driveChunk(t, a, c1, pattern[prev:cut])
		prev = cut
		if _, err := s1.RunPipelineOnce(context.Background()); err != nil {
			t.Fatalf("pre-kill cycle %d: %v", cycle, err)
		}
	}
	// Checkpoint (seals memory into a block, prunes WAL), then SIGKILL:
	// the HTTP listener dies, the store is abandoned un-Closed.
	if err := s1.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	hs1.Close()

	opts2 := incrementalOptions(2) // recover at a different shard count
	opts2.DataDir, opts2.Fsync, opts2.FlushInterval = dir, "never", -1
	s2, _, c2 := newTestServer(t, opts2)
	driveChunk(t, a, c2, pattern[cuts[1]:])
	info, err := s2.RunPipelineOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := marshaledArtifact(t, s2)
	want, refInfo := referenceArtifact(t, incrementalOptions(1), pattern, seed)
	if refInfo.Start != info.Start || refInfo.End != info.End {
		t.Fatalf("window mismatch after restart: [%d,%d) vs reference [%d,%d)",
			info.Start, info.End, refInfo.Start, refInfo.End)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-restart incremental artifact diverged from from-scratch run over the recovered data")
	}
}

// TestIncrementalCancelledRunIsNotFailure: a caller abandoning a run
// (disconnected POST /run, shutdown mid-cycle) must not flip the
// pipeline into the failing state or trigger the failing/recovered log
// pair — and the next cycle still runs.
func TestIncrementalCancelledRunIsNotFailure(t *testing.T) {
	s, _, c := newTestServer(t, incrementalOptions(2))
	a, err := app.New(chainSpec(), 37)
	if err != nil {
		t.Fatal(err)
	}
	driveChunk(t, a, c, loadgen.Random(7, 100, 100, 1500))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunPipelineOnce(ctx); err == nil {
		t.Fatal("cancelled run should error")
	}
	if h := s.tel.pipeline.Health(); h.Failures != 0 {
		t.Fatalf("cancelled run flipped the pipeline into the failing state: %+v", h)
	}
	if _, err := s.RunPipelineOnce(context.Background()); err != nil {
		t.Fatalf("run after abandoned cycle: %v", err)
	}
}

// TestOnlineStateRacesIngestAndReaders exercises pipeline cycles
// against concurrent in-order ingest, late writes, /artifact readers and
// /stats polls (run under -race in CI).
func TestOnlineStateRacesIngestAndReaders(t *testing.T) {
	s, hs, c := newTestServer(t, incrementalOptions(4))
	a, err := app.New(chainSpec(), 31)
	if err != nil {
		t.Fatal(err)
	}
	driveChunk(t, a, c, loadgen.Random(7, 100, 100, 1500))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // late writes racing the scans
		defer wg.Done()
		for ctx.Err() == nil {
			if _, err := c.WriteSamples([]tsdb.Sample{{Component: "api", Metric: "api_rate", T: 20000, V: 1}}); err != nil {
				return
			}
		}
	}()
	go func() { // ingest racing the pipeline
		defer wg.Done()
		coll, err := metrics.NewCollector(c, a.Registries()...)
		if err != nil {
			t.Error(err)
			return
		}
		for ctx.Err() == nil {
			if err := loadgen.DriveCollector(ctx, a, loadgen.Constant(300, 5), coll); err != nil {
				return
			}
		}
	}()
	go func() { // artifact readers
		defer wg.Done()
		for ctx.Err() == nil {
			resp, err := http.Get(hs.URL + "/artifact")
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	go func() { // stats readers
		defer wg.Done()
		for ctx.Err() == nil {
			if _, err := c.Stats(); err != nil {
				return
			}
		}
	}()

	for i := 0; i < 6; i++ {
		if _, err := s.RunPipelineOnce(ctx); err != nil && ctx.Err() == nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	cancel()
	wg.Wait()
	if gen := s.generation(); gen < 6 {
		t.Fatalf("generation = %d, want >= 6", gen)
	}
}
