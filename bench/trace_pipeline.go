package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/sieve-microservices/sieve/internal/core"
	"github.com/sieve-microservices/sieve/internal/granger"
	"github.com/sieve-microservices/sieve/internal/kshape"
	"github.com/sieve-microservices/sieve/internal/server"
	"github.com/sieve-microservices/sieve/internal/timeseries"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// widestComponent is the ShareLatex component with the most metrics; the
// k-Shape kernels are timed on it.
const widestComponent = "web"

// tracePipeline replays the pipeline cycles in this process, one
// goroutine driving them: Server.RunPipelineOnce on an incremental twin
// server, then the stages it is made of — DatasetFromDB, ReduceContext,
// IdentifyDependenciesContext, MarshalArtifact — over the same window on
// a second in-memory store, with WindowCache.Advance beside them.
func tracePipeline(e *env, cfg runConfig, r *result, payloads [][]byte, edges []server.CallEdge) error {
	graph := graphFromEdges(edges)
	srv, err := server.New(server.Options{
		AppName: pipeApp, Shards: 4, StepMS: pipeStepMS, WindowMS: pipeWindowMS,
		Interval: time.Hour, Incremental: true, CallGraph: graph,
	})
	if err != nil {
		return err
	}
	store := tsdb.NewSharded(4)
	feed := func(from, to int) error {
		for _, p := range payloads[from:to] {
			if _, err := srv.Store().Write(p); err != nil {
				return err
			}
			if _, err := store.Write(p); err != nil {
				return err
			}
		}
		return nil
	}
	ctx := context.Background()
	if err := feed(0, pipePrefillTicks); err != nil {
		return err
	}
	cold, err := srv.RunPipelineOnce(ctx)
	if err != nil {
		return fmt.Errorf("traced cold cycle: %w", err)
	}
	cache := core.NewWindowCache(pipeApp, pipeStepMS)
	if _, _, err := cache.Advance(store, cold.Start, cold.End); err != nil {
		return err
	}

	cycles := (len(payloads) - pipePrefillTicks) / pipeTicksPerCycle
	if max := cfg.scaledCount(12, 2); cycles > max {
		cycles = max
	}
	tr := newTracer(1)
	var (
		replayErr error
		ds        *core.Dataset
		red       core.Reduction
	)
	fail := func(err error) {
		if err != nil && replayErr == nil {
			replayErr = err
		}
	}
	for i := 0; i < cycles && replayErr == nil; i++ {
		at := pipePrefillTicks + i*pipeTicksPerCycle
		if err := feed(at, at+pipeTicksPerCycle); err != nil {
			return err
		}
		var info *server.RunInfo
		root := tr.timed(i, 0, "cycle.run", func() {
			var err error
			info, err = srv.RunPipelineOnce(ctx)
			fail(err)
		})
		if replayErr != nil {
			break
		}
		tr.timed(i, root, "cycle.advance", func() {
			_, _, err := cache.Advance(store, info.Start, info.End)
			fail(err)
		})
		tr.timed(i, root, "cycle.assemble", func() {
			var err error
			ds, err = core.DatasetFromDB(store, pipeApp, pipeStepMS, info.Start, info.End)
			fail(err)
		})
		if replayErr != nil {
			break
		}
		ds.CallGraph = graph
		tr.timed(i, root, "cycle.reduce", func() {
			var err error
			red, err = core.ReduceContext(ctx, ds, core.DefaultReduceOptions())
			fail(err)
		})
		var deps *core.DependencyGraph
		tr.timed(i, root, "cycle.deps", func() {
			var err error
			deps, err = core.IdentifyDependenciesContext(ctx, ds, red, core.DepOptions{})
			fail(err)
		})
		tr.timed(i, root, "cycle.marshal", func() {
			_, err := core.MarshalArtifact(&core.Artifact{App: pipeApp, Dataset: ds, Reduction: red, Graph: deps})
			fail(err)
		})
	}
	if replayErr != nil {
		return fmt.Errorf("traced pipeline replay: %w", replayErr)
	}
	med := tr.medians()
	ms := func(name string) float64 { return med[name] / 1e6 }
	r.set("core.windowcache.advance_ms", ms("cycle.advance"), tr.count("cycle.advance"))
	r.set("core.dataset.from_db_ms", ms("cycle.assemble"), tr.count("cycle.assemble"))
	r.set("core.reduce.call_ms", ms("cycle.reduce"), tr.count("cycle.reduce"))
	r.set("core.deps.call_ms", ms("cycle.deps"), tr.count("cycle.deps"))
	r.set("core.marshal.call_ms", ms("cycle.marshal"), tr.count("cycle.marshal"))

	if err := traceKernels(ctx, r, ds, red, graph.CommunicatingPairs()); err != nil {
		return err
	}

	// The incremental cycle assembles through the window cache, so the
	// path charges cycle.advance, not the batch cycle.assemble.
	sum := tr.printPath(os.Stdout, "pipeline cycle (RunPipelineOnce)", med, []level{
		{"cycle.run", []string{"cycle.advance", "cycle.reduce", "cycle.deps", "cycle.marshal"}},
		{"cycle.advance", nil},
		{"cycle.reduce", nil},
		{"cycle.deps", nil},
		{"cycle.marshal", nil},
	})
	client := r.get("client.cycle_p50_ms")
	fmt.Printf("client-observed POST /run median (untraced): %.1f us\n", client*1e3)
	r.set("trace.unattributed_cycle_pct", unattributedPct(client, sum), 0)
	// Every cycle is traced: with a handful of cycles of seconds each
	// there are no blocks to alternate, and two clock reads per stage are
	// not measurable against a stage.
	r.set("trace.overhead_pct", 0, cycles)
	return tr.write(e.outDir, "pipeline")
}

// traceKernels times the k-Shape kernels on the widest component of the
// last replayed window, and single Granger pair tests between the
// representatives the reduction kept.
func traceKernels(ctx context.Context, r *result, ds *core.Dataset, red core.Reduction, pairs [][2]string) error {
	byName := ds.Series[widestComponent]
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	var kept []string
	var series, znorm [][]float64
	for _, name := range names {
		vals := byName[name].Values
		if timeseries.Variance(vals) <= timeseries.LowVarianceThreshold || timeseries.HasNaN(vals) {
			continue
		}
		kept = append(kept, name)
		series = append(series, vals)
		znorm = append(znorm, timeseries.ZNormalize(vals))
	}
	if len(series) < 2 {
		return fmt.Errorf("component %s kept %d series, too few to cluster", widestComponent, len(series))
	}
	var sbd, choose []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		dist, err := kshape.PairwiseSBD(znorm)
		if err != nil {
			return err
		}
		sbd = append(sbd, float64(time.Since(t0).Nanoseconds())/1e6)
		t0 = time.Now()
		if _, err := kshape.ChooseKFromDist(ctx, series, dist, kept, 2, 7, 0, 0); err != nil {
			return err
		}
		choose = append(choose, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	r.set("kshape.sbd_matrix_ms", median(sbd), len(sbd))
	r.set("kshape.choosek_ms", median(choose), len(choose))

	gopts := granger.Options{MaxLag: granger.LagSamples(500, ds.StepMS)}
	var pairUS []float64
	for _, p := range pairs {
		ra, rb := red[p[0]], red[p[1]]
		if ra == nil || rb == nil {
			continue
		}
		for _, ca := range ra.Clusters {
			for _, cb := range rb.Clusters {
				sa, sb := ds.Get(p[0], ca.Representative), ds.Get(p[1], cb.Representative)
				if sa == nil || sb == nil || len(pairUS) >= 200 {
					continue
				}
				t0 := time.Now()
				_, _, _, _ = granger.Direction(sa.Values, sb.Values, gopts) // a degenerate pair is skipped by the pipeline too
				pairUS = append(pairUS, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	}
	if len(pairUS) > 0 {
		r.set("granger.pair_us", median(pairUS), len(pairUS))
	}
	return nil
}
