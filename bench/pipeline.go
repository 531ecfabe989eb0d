package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/app/sharelatex"
	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/core"
	"github.com/sieve-microservices/sieve/internal/loadgen"
	"github.com/sieve-microservices/sieve/internal/metrics"
	"github.com/sieve-microservices/sieve/internal/server"
	"github.com/sieve-microservices/sieve/internal/trace"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

const (
	pipePrefillTicks = 240 // fills the 120 s window at the 500 ms tick
	// pipeTicksPerCycle is how far the window slides between runs: 10 s
	// of application time, so a run's cycles cross several load levels
	// rather than analysing one stretch over and over.
	pipeTicksPerCycle = 20
	// pipeCycles is the nominal fixed work: at the ~0.7 s a ShareLatex
	// cycle costs on the reference box, 36 cycles fill the nominal 30 s.
	pipeCycles = 36
	// pipeLoadSeed fixes the load trace. What a cycle costs depends on
	// the window's content far more than on anything else — 0.5 s to 8 s
	// across traces on the reference box, k-Shape converging quickly or
	// not — so the trace is part of the workload's definition, like the
	// series count of the dashboard; -seed draws the application's noise.
	pipeLoadSeed = 2
	// runTimeout replaces requestTimeout for POST /run: a cycle is
	// seconds of work by design.
	runTimeout       = 60 * time.Second
	pipeWindowMS     = 120_000
	pipeStepMS       = 500
	pipeApp          = "sharelatex"
	pipeSetupRepeats = 3
)

// capture is the tsdb.Writer a metrics.Collector scrapes into: it keeps
// the encoded payload so the harness can send it itself, on its own
// clock, and replay it into the in-process twin.
type capture struct{ payload []byte }

func (c *capture) Write(p []byte) (int, error) {
	c.payload = p
	return bytes.Count(p, []byte{'\n'}), nil
}

// simulator is the ShareLatex application, its noise drawn from the run
// seed, under the fixed random load trace, scraped through a
// metrics.Collector one tick at a time.
type simulator struct {
	app     *app.App
	tracer  *trace.Tracer
	coll    *metrics.Collector
	cap     *capture
	pattern loadgen.Pattern
	tick    int
}

func newSimulator(seed int64, ticks int) (*simulator, error) {
	a, err := sharelatex.New(subSeed(seed, "sharelatex-app"))
	if err != nil {
		return nil, err
	}
	s := &simulator{
		app:     a,
		tracer:  trace.NewTracer(0, nil),
		cap:     &capture{},
		pattern: loadgen.Random(pipeLoadSeed, ticks, 200, 2500),
	}
	a.AttachTracer(s.tracer)
	if s.coll, err = metrics.NewCollector(s.cap, a.Registries()...); err != nil {
		return nil, err
	}
	return s, nil
}

// next advances the application one tick and returns that tick's scrape
// as a line-protocol payload.
func (s *simulator) next() ([]byte, error) {
	s.app.Step(s.pattern[s.tick%len(s.pattern)])
	s.tick++
	if _, err := s.coll.ScrapeOnce(s.app.Now()); err != nil {
		return nil, err
	}
	return s.cap.payload, nil
}

// edges is the traced call graph in the /callgraph wire shape.
func (s *simulator) edges() []server.CallEdge {
	var out []server.CallEdge
	for _, e := range callgraph.FromSyscallEvents(s.tracer.Events()).Edges() {
		out = append(out, server.CallEdge{Caller: e.Caller, Callee: e.Callee, Calls: e.Calls})
	}
	return out
}

func graphFromEdges(edges []server.CallEdge) *callgraph.Graph {
	g := callgraph.New()
	for _, e := range edges {
		g.AddCall(e.Caller, e.Callee, e.Calls)
	}
	return g
}

// pipeWindow is pipeWindowMS as the child's -window flag.
var pipeWindow = (pipeWindowMS * time.Millisecond).String()

func pipelineChildArgs() []string {
	return []string{"-incremental", "-window", pipeWindow, "-interval", "1h", "-app", pipeApp}
}

// postRun is one POST /run: its wall time and the server's own account.
func postRun(c *conn) (time.Duration, *server.RunInfo, error) {
	c.hc.Timeout = runTimeout
	t0 := time.Now()
	_, err := c.do(http.MethodPost, "/run", "", "", nil)
	d := time.Since(t0)
	c.hc.Timeout = requestTimeout
	if err != nil {
		return d, nil, err
	}
	var info server.RunInfo
	if err := json.Unmarshal(c.buf.Bytes(), &info); err != nil {
		return d, nil, err
	}
	return d, &info, nil
}

// prefill starts a fresh simulator, drives pipePrefillTicks scrapes into
// the child over /write and posts the call graph traced so far, which it
// returns. payloads, when non-nil, collects every payload sent for the
// in-process reference.
func prefill(c *conn, sim *simulator, r *result, payloads *[][]byte) ([]server.CallEdge, error) {
	for i := 0; i < pipePrefillTicks; i++ {
		p, err := sim.next()
		if err != nil {
			return nil, err
		}
		if payloads != nil {
			*payloads = append(*payloads, p)
		}
		r.ops(1, 0)
		if err := c.writeLine(p); err != nil {
			r.checkFailed(1, "prefill write: %v", err)
		}
	}
	edges := sim.edges()
	body, err := json.Marshal(edges)
	if err != nil {
		return nil, err
	}
	r.ops(1, 0)
	if _, err := c.do(http.MethodPost, "/callgraph", "application/json", "", body); err != nil {
		r.checkFailed(1, "posting call graph: %v", err)
	}
	return edges, nil
}

func runPipeline(e *env, cfg runConfig, r *result) error {
	cycles := cfg.scaledCount(pipeCycles, 1)
	ticks := pipePrefillTicks + cycles*pipeTicksPerCycle

	// Set-up, repeated: an in-memory child, the window prefilled over
	// /write, the call graph posted. The last repeat is the one measured.
	var (
		setups   []float64
		c        *child
		sim      *simulator
		payloads [][]byte
		edges    []server.CallEdge
	)
	hc := newConn("")
	defer hc.close()
	for i := 0; i < pipeSetupRepeats; i++ {
		t0 := time.Now()
		var err error
		if sim, err = newSimulator(cfg.seed, ticks); err != nil {
			return err
		}
		if c, err = e.spawn("pipeline", pipelineChildArgs()...); err != nil {
			return err
		}
		hc.base = c.base
		last := i == pipeSetupRepeats-1
		var keep *[][]byte
		if last {
			keep = &payloads
		}
		if edges, err = prefill(hc, sim, r, keep); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if !last {
			c.kill()
		}
	}
	r.set("setup_s", median(setups), len(setups))

	// The cold cycle: window cache and Granger cache are empty.
	br := openBracket(c, hc, time.Time{}) // hc is idle whenever the bracket reads
	r.ops(1, 0)
	cold, _, err := postRun(hc)
	if err != nil {
		r.checkFailed(1, "cold /run: %v", err)
	}
	r.set("client.cycle_cold_ms", float64(cold)/float64(time.Millisecond), 1)

	// Measured phase, fixed work: every run analyses the same windows.
	var (
		lat   latencies
		clock loopClock
		info  *server.RunInfo
		total time.Duration
	)
	phaseStart := time.Now()
	for i := 0; i < cycles; i++ {
		loopStart := time.Now()
		var inReq time.Duration
		for t := 0; t < pipeTicksPerCycle; t++ {
			p, err := sim.next()
			if err != nil {
				return err
			}
			payloads = append(payloads, p)
			r.ops(1, 0)
			t0 := time.Now()
			if err := hc.writeLine(p); err != nil {
				r.checkFailed(1, "scrape write: %v", err)
			}
			inReq += time.Since(t0)
		}
		r.ops(1, 0)
		d, ri, err := postRun(hc)
		inReq += d
		if err != nil {
			r.checkFailed(1, "/run %d: %v", i, err)
		} else {
			lat.add(d)
			total += d
			info = ri
		}
		clock.request += inReq
		clock.loop += time.Since(loopStart)
	}
	phaseS := time.Since(phaseStart).Seconds()
	m, cpuS, rss, err := br.close()
	if err != nil {
		return err
	}
	if len(lat) > 0 {
		r.set("cycle_mean_ms", float64(total)/float64(time.Millisecond)/float64(len(lat)), len(lat))
		r.set("op_p50_ms", lat.p50(), len(lat))
		r.set("ops_per_s", float64(len(lat))/phaseS, len(lat))
		r.set("cpu_ms_per_op", cpuS*1000/float64(len(lat)+1), len(lat)+1)
	}
	r.set("client.cycle_p50_ms", lat.p50(), len(lat))
	r.set("client.cycle_max_ms", lat.max(), len(lat))
	r.set("client.gen_share", clock.genShare(), 0)
	r.set("rss_peak_mb", rss, 0)
	setPipelineLayerMetrics(r, m)

	// Output check: the published artifact equals a from-scratch batch
	// run over the same window, computed in this process.
	r.ops(1, 0)
	if info == nil {
		r.checkFailed(1, "no completed /run to check")
	} else if err := checkArtifact(hc, payloads, edges, info); err != nil {
		r.checkFailed(1, "artifact: %v", err)
	}
	c.kill()
	if cfg.trace {
		return tracePipeline(e, cfg, r, payloads, edges)
	}
	return nil
}

// setPipelineLayerMetrics lifts the stage sums out of a /metrics delta.
func setPipelineLayerMetrics(r *result, m scrape) {
	n := int(m["sieve_pipeline_cycle_seconds_count"])
	r.set("core.assemble.busy_s", m["sieve_pipeline_assemble_seconds_sum"], n)
	r.set("core.reduce.busy_s", m["sieve_pipeline_reduce_seconds_sum"], n)
	r.set("core.deps.busy_s", m["sieve_pipeline_deps_seconds_sum"], n)
	r.set("core.marshal.busy_s", m["sieve_pipeline_marshal_seconds_sum"], n)
	hits, misses := m["sieve_granger_cache_hits_total"], m["sieve_granger_cache_misses_total"]
	if hits+misses > 0 {
		r.set("granger.cache_hit_share", hits/(hits+misses), int(hits+misses))
	}
}

// memoryTwin replays payloads into an in-memory store like the child's.
func memoryTwin(payloads [][]byte) (*tsdb.Sharded, error) {
	twin := tsdb.NewSharded(4)
	for _, p := range payloads {
		if _, err := twin.Write(p); err != nil {
			return nil, err
		}
	}
	return twin, nil
}

// batchArtifact runs the whole pipeline from scratch over [start, end)
// of store, the way a non-incremental sieved would.
func batchArtifact(ctx context.Context, store tsdb.ReadStore, graph *callgraph.Graph, start, end int64) ([]byte, error) {
	ds, err := core.DatasetFromDB(store, pipeApp, pipeStepMS, start, end)
	if err != nil {
		return nil, err
	}
	ds.CallGraph = graph
	red, err := core.ReduceContext(ctx, ds, core.DefaultReduceOptions())
	if err != nil {
		return nil, err
	}
	deps, err := core.IdentifyDependenciesContext(ctx, ds, red, core.DepOptions{})
	if err != nil {
		return nil, err
	}
	return core.MarshalArtifact(&core.Artifact{App: pipeApp, Dataset: ds, Reduction: red, Graph: deps})
}

// checkArtifact compares GET /artifact with the in-process batch
// reference over the window the last run reported.
func checkArtifact(c *conn, payloads [][]byte, edges []server.CallEdge, info *server.RunInfo) error {
	if err := c.get("/artifact"); err != nil {
		return err
	}
	var env server.ArtifactEnvelope
	if err := json.Unmarshal(c.buf.Bytes(), &env); err != nil {
		return err
	}
	if env.Generation != info.Generation {
		return fmt.Errorf("published generation %d, last run was %d", env.Generation, info.Generation)
	}
	twin, err := memoryTwin(payloads)
	if err != nil {
		return err
	}
	ref, err := batchArtifact(context.Background(), twin, graphFromEdges(edges), info.Start, info.End)
	if err != nil {
		return err
	}
	var got, want bytes.Buffer
	if err := json.Compact(&got, env.Artifact); err != nil {
		return err
	}
	if err := json.Compact(&want, ref); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return fmt.Errorf("incremental artifact (%d bytes) differs from the batch reference (%d bytes) over [%d,%d)",
			got.Len(), want.Len(), info.Start, info.End)
	}
	return nil
}
