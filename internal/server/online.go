package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/core"
	"github.com/sieve-microservices/sieve/internal/telemetry"
)

// ErrNoData reports that the store does not yet hold enough data to
// cover a meaningful analysis window; the background driver treats it as
// "try again next tick", POST /run surfaces it as 409.
var ErrNoData = errors.New("server: not enough ingested data for a pipeline run")

// StageTimings is the per-stage elapsed breakdown of one pipeline run,
// so a cycle-time regression is attributable to the stage that caused
// it.
type StageTimings struct {
	// Assemble covers dataset assembly: one raw store query plus
	// resampling (core.DatasetFromDB).
	Assemble time.Duration `json:"assemble_ns"`
	// Reduce covers step 2 (variance filter + clustering).
	Reduce time.Duration `json:"reduce_ns"`
	// Deps covers step 3 (Granger tests over representative pairs).
	Deps time.Duration `json:"deps_ns"`
}

// RunInfo summarizes one completed pipeline run (also the POST /run
// response body). The run's artifact is not serialized by the run: GET
// /artifact encodes it on the generation's first read.
type RunInfo struct {
	// Generation increments on every published artifact.
	Generation int64 `json:"generation"`
	// Start and End bound the analysis window in ingest-time ms.
	Start int64 `json:"window_start_ms"`
	End   int64 `json:"window_end_ms"`
	// Elapsed is the wall time of the run, up to the publication.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Stages breaks Elapsed down per pipeline stage.
	Stages StageTimings `json:"stages"`
	// Series is the number of series analyzed, Clusters the reduced
	// metric count, Edges the dependency count.
	Series   int `json:"series"`
	Clusters int `json:"clusters"`
	Edges    int `json:"edges"`
}

// publication is one published generation: the run's account, its
// autoscaling signal and its analysis. runPipelineOnce swaps a new one
// into Server.pub whole and never changes it after; the one mutable
// part is the GET /artifact body, which the generation's first read
// encodes under once (Server.artifactBody), dropping art.
type publication struct {
	info   RunInfo
	signal Signal
	art    *core.Artifact
	once   sync.Once
	body   []byte
	err    error
}

// generation is the generation of the current publication, 0 before
// the first.
func (s *Server) generation() int64 {
	if p := s.pub.Load(); p != nil {
		return p.info.Generation
	}
	return 0
}

// snapshotGraph returns the current topology, or an empty graph when
// none was configured or uploaded (the pipeline then reduces metrics but
// infers no dependencies).
func (s *Server) snapshotGraph() *callgraph.Graph {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.graph == nil {
		return callgraph.New()
	}
	return s.graph
}

// pipelineWindow picks the analysis window for this cycle. Batch mode
// keeps the historical shape [hi-WindowMS, hi+1). Incremental mode
// aligns the exclusive end down to the sampling grid so consecutive
// windows slide by whole steps; the window is then exactly WindowMS wide
// once the store has filled it.
func (s *Server) pipelineWindow(hi int64) (lo, end int64, err error) {
	if s.opts.Incremental {
		end = core.AlignWindowEnd(hi, s.opts.StepMS)
		if end <= 0 {
			return 0, 0, fmt.Errorf("%w: ingested data spans less than one grid step", ErrNoData)
		}
		lo = end - s.opts.WindowMS
		if lo < 0 {
			lo = 0
		}
		if got := (end - lo) / s.opts.StepMS; got < MinWindowSamples {
			return 0, 0, fmt.Errorf("%w: window spans %d of %d required grid steps",
				ErrNoData, got, MinWindowSamples)
		}
		return lo, end, nil
	}
	lo = hi - s.opts.WindowMS
	if lo < 0 {
		lo = 0
	}
	end = hi + 1 // window is [lo, hi] inclusive of the newest point
	if got := (hi - lo) / s.opts.StepMS; got < MinWindowSamples {
		return 0, 0, fmt.Errorf("%w: window spans %d of %d required grid steps",
			ErrNoData, got, MinWindowSamples)
	}
	return lo, end, nil
}

// RunPipelineOnce executes one windowed pipeline cycle: slide the window
// to the store's application high-water mark, assemble a dataset from
// the sharded store, run Reduce + Granger over GOMAXPROCS workers, and
// publish the new artifact. Runs are serialized; readers keep seeing
// the previous publication until the new one is swapped in. The cycle
// only checks that the artifact can be encoded: GET /artifact encodes
// it, once, when the generation is first read.
//
// Every cycle assembles its window from the store afresh; no dataset
// state carries from one cycle to the next.
func (s *Server) RunPipelineOnce(ctx context.Context) (*RunInfo, error) {
	sp := s.tel.opCycle.Start()
	info, err := s.runPipelineOnce(ctx, &sp)
	// An ErrNoData skip proves the loop alive (the window just has not
	// filled); a canceled run (a disconnected POST /run) is no failure.
	if errors.Is(err, ErrNoData) {
		s.tel.pipeline.Alive()
	} else {
		s.tel.pipeline.Report(err)
	}
	sp.End()
	return info, err
}

func (s *Server) runPipelineOnce(ctx context.Context, sp *telemetry.Span) (*RunInfo, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	started := time.Now()

	hi := s.store.AppMaxTime()
	if hi == 0 {
		return nil, fmt.Errorf("%w: store is empty", ErrNoData)
	}
	lo, end, err := s.pipelineWindow(hi)
	if err != nil {
		return nil, err
	}

	var info RunInfo
	stage := time.Now()
	ds, err := core.DatasetFromDB(s.store, s.opts.AppName, s.opts.StepMS, lo, end)
	info.Stages.Assemble = time.Since(stage)
	if err != nil {
		if errors.Is(err, core.ErrNoSeries) {
			// The window held nothing analyzable — ingest has not reached
			// it, or everything in it is filtered out (the reserved
			// self-telemetry component). That is waiting, not failing.
			return nil, fmt.Errorf("%w: window holds no analyzable series", ErrNoData)
		}
		return nil, fmt.Errorf("assembling window dataset: %w", err)
	}
	ds.CallGraph = s.snapshotGraph()

	stage = time.Now()
	red, err := core.ReduceContext(ctx, ds, core.DefaultReduceOptions())
	info.Stages.Reduce = time.Since(stage)
	if err != nil {
		return nil, fmt.Errorf("reduce: %w", err)
	}

	stage = time.Now()
	graph, err := core.IdentifyDependenciesContext(ctx, ds, red, core.DepOptions{})
	info.Stages.Deps = time.Since(stage)
	if err != nil {
		return nil, fmt.Errorf("identify dependencies: %w", err)
	}

	// A generation is published only if GET /artifact can encode it.
	art := &core.Artifact{App: s.opts.AppName, Dataset: ds, Reduction: red, Graph: graph}
	if err := core.ValidateArtifact(art); err != nil {
		return nil, fmt.Errorf("marshaling artifact: %w", err)
	}

	info.Generation = s.generation() + 1 // runMu held: no other run publishes
	info.Start, info.End = lo, end
	info.Elapsed = time.Since(started)
	info.Series = ds.TotalMetrics()
	info.Clusters = red.TotalAfter()
	info.Edges = len(graph.Edges)

	// Lift the run's breakdown into the telemetry registry and the
	// cycle span (the span only materializes if the cycle crossed the
	// slow-op threshold).
	s.tel.cycleSeconds.Observe(info.Elapsed.Seconds())
	s.tel.assembleSeconds.Observe(info.Stages.Assemble.Seconds())
	s.tel.reduceSeconds.Observe(info.Stages.Reduce.Seconds())
	s.tel.depsSeconds.Observe(info.Stages.Deps.Seconds())
	s.tel.pipelineRuns.Inc()
	s.tel.grangerTests.Add(uint64(graph.Tested))
	sp.Stage("assemble", info.Stages.Assemble)
	sp.Stage("reduce", info.Stages.Reduce)
	sp.Stage("deps", info.Stages.Deps)
	sp.FieldInt("generation", info.Generation)
	sp.FieldInt("series", int64(info.Series))
	sp.FieldInt("clusters", int64(info.Clusters))
	sp.FieldInt("edges", int64(info.Edges))

	// The autoscaling signal only changes when the artifact does;
	// compute it once here instead of on every /artifact poll.
	metric, relations := graph.MostFrequentMetric()
	pub := &publication{info: info, signal: Signal{Metric: metric, Relations: relations}, art: art}

	s.pub.Store(pub)
	return &info, nil
}

// Start launches the background driver: one pipeline run every
// opts.Interval until ctx is done or Close is called (every error but
// ErrNoData is kept for /stats), and with Options.SelfScrapeInterval the
// self-scrape. Start returns at once; a second Start adds nothing.
func (s *Server) Start(ctx context.Context) {
	s.startOnce.Do(func() {
		s.tel.pipeline.Alive()
		s.loops.Every(s.opts.Interval, false, func(ctx context.Context) { _, _ = s.RunPipelineOnce(ctx) })
		if s.opts.SelfScrapeInterval > 0 {
			s.loops.Every(s.opts.SelfScrapeInterval, false, func(context.Context) { _, _ = s.SelfScrapeOnce() })
		}
		context.AfterFunc(ctx, s.loops.Stop)
	})
}
