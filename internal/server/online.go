package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
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
	// Health stamps for /healthz: a completed cycle and an ErrNoData
	// skip both prove the loop is alive (the window just has not filled
	// on the latter); only silence stalls the readiness check.
	now := time.Now().UnixNano()
	switch {
	case err == nil:
		s.lastCycleNS.Store(now)
	case errors.Is(err, ErrNoData):
		s.lastNoDataNS.Store(now)
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
		return nil, s.recordErr(fmt.Errorf("assembling window dataset: %w", err))
	}
	ds.CallGraph = s.snapshotGraph()

	stage = time.Now()
	red, err := core.ReduceContext(ctx, ds, core.DefaultReduceOptions())
	info.Stages.Reduce = time.Since(stage)
	if err != nil {
		return nil, s.recordErr(fmt.Errorf("reduce: %w", err))
	}

	stage = time.Now()
	graph, err := core.IdentifyDependenciesContext(ctx, ds, red, core.DepOptions{})
	info.Stages.Deps = time.Since(stage)
	if err != nil {
		return nil, s.recordErr(fmt.Errorf("identify dependencies: %w", err))
	}

	// A generation is published only if GET /artifact can encode it.
	art := &core.Artifact{App: s.opts.AppName, Dataset: ds, Reduction: red, Graph: graph}
	if err := core.ValidateArtifact(art); err != nil {
		return nil, s.recordErr(fmt.Errorf("marshaling artifact: %w", err))
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

	s.mu.Lock()
	s.pub.Store(pub)
	s.lastErr = ""
	recovered := s.runFailing
	s.runFailing = false
	s.mu.Unlock()
	if recovered {
		// Mirror the durable store's checkpoint health reporting: log
		// once per state change, with the stage breakdown so the
		// recovery cycle's cost is attributable.
		slog.Info("pipeline recovered",
			"generation", info.Generation,
			"window_start_ms", lo, "window_end_ms", end,
			"assemble", info.Stages.Assemble.Round(time.Microsecond),
			"reduce", info.Stages.Reduce.Round(time.Microsecond),
			"deps", info.Stages.Deps.Round(time.Microsecond))
	}
	return &info, nil
}

// recordErr remembers the failure for /stats, passes it through, and —
// like the durable store's checkpoint health — logs once per
// failing -> recovered state change, never per tick. Context
// cancellation is the caller abandoning the run (a disconnected POST
// /run, shutdown mid-cycle), not a pipeline fault: it is remembered in
// lastErr but never flips the failing state or logs.
func (s *Server) recordErr(err error) error {
	canceled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if !canceled {
		s.tel.pipelineFailures.Inc()
	}
	s.mu.Lock()
	s.lastErr = err.Error()
	transition := !canceled && !s.runFailing
	if !canceled {
		s.runFailing = true
	}
	s.mu.Unlock()
	if transition {
		slog.Error("pipeline failing, kept serving last artifact",
			"generation", s.generation(), "err", err)
	}
	return err
}

// Start launches the background driver: one pipeline run every
// opts.Interval until ctx is done. ErrNoData ticks are silently skipped
// (the window just has not filled yet); other errors are kept for
// /stats. With Options.SelfScrapeInterval it also starts the
// self-scrape loop. Start returns immediately.
func (s *Server) Start(ctx context.Context) {
	s.driverStartNS.CompareAndSwap(0, time.Now().UnixNano())
	if s.opts.SelfScrapeInterval > 0 {
		go s.selfScrapeLoop(ctx)
	}
	go func() {
		ticker := time.NewTicker(s.opts.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				if _, err := s.RunPipelineOnce(ctx); err != nil && ctx.Err() != nil {
					return
				}
			}
		}
	}()
}
