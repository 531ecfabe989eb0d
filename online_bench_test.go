package sieve

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// Online-cycle benchmark: one sieved pipeline cycle over a sliding
// window, under batch window ends and under the grid-aligned ends
// Options.Incremental selects. Every cycle reads its whole window from
// the store either way; reduce and Granger are the same exact
// computation in every row. Each iteration ingests one new grid step and
// runs one cycle, exactly the steady state of a live sieved.
const (
	obWindowSteps  = 240 // 120 s window at the paper's 500 ms grid
	obStepMS       = int64(500)
	obPrefillSteps = 300
)

// obVal is the deterministic signal of series (comp, met) at tMS: even
// metrics form a sine family, odd metrics a ramp family, phase-shifted
// per component so clustering and Granger both do representative work.
func obVal(comp, met int, tMS int64) float64 {
	t := float64(tMS) / 1000
	if met%2 == 0 {
		return 100 + 30*math.Sin(t/7+float64(comp)) + float64(met)
	}
	return 50 + 20*math.Mod(t/3+float64(comp*5+met), 17)
}

func obSamples(comps, mets int, fromMS, toMS int64) []tsdb.Sample {
	var out []tsdb.Sample
	for ts := fromMS; ts < toMS; ts += obStepMS {
		for c := 0; c < comps; c++ {
			for m := 0; m < mets; m++ {
				out = append(out, tsdb.Sample{
					Component: fmt.Sprintf("comp-%02d", c),
					Metric:    fmt.Sprintf("metric_%02d", m),
					T:         ts,
					V:         obVal(c, m, ts),
				})
			}
		}
	}
	return out
}

func obGraph(comps int) *callgraph.Graph {
	g := callgraph.New()
	for c := 0; c+1 < comps; c++ {
		g.AddCall(fmt.Sprintf("comp-%02d", c), fmt.Sprintf("comp-%02d", c+1), 100)
	}
	return g
}

// onlineRow is one BENCH_online.json entry.
type onlineRow struct {
	Name        string  `json:"name"`
	Engine      string  `json:"engine"` // batch | incremental | incremental+fullrecompute
	Series      int     `json:"series"`
	WindowSteps int     `json:"window_steps"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

var onlineBench struct {
	sync.Mutex
	rows map[string]onlineRow
}

// flushOnlineJSON, under -benchjson, rewrites BENCH_online.json from the accumulated rows
// in fixed case order, tracking the online-cycle cost trajectory across
// PRs the way BENCH_ingest.json tracks the write path.
func flushOnlineJSON(order []string) {
	if !*benchJSON {
		return
	}
	onlineBench.Lock()
	defer onlineBench.Unlock()
	var rows []onlineRow
	for _, name := range order {
		if r, ok := onlineBench.rows[name]; ok {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return
	}
	out := struct {
		Benchmark string `json:"benchmark"`
		benchHost
		WindowSteps int         `json:"window_steps"`
		Results     []onlineRow `json:"results"`
	}{
		Benchmark:   "BenchmarkOnlineCycle",
		benchHost:   thisHost(),
		WindowSteps: obWindowSteps,
		Results:     rows,
	}
	writeBenchJSON("BENCH_online.json", out)
}

// BenchmarkOnlineCycle measures one steady-state pipeline cycle (ingest
// one grid step, slide the window, recompute the artifact) per engine
// and series count, tracked in BENCH_online.json. The engines differ
// only in window alignment: "incremental" aligns each window end down
// to the grid, "batch" ends it just past the newest point. Both read the
// whole window from the store every cycle (one raw QueryRange plus
// Resample per series), so the file records what a cycle costs.
func BenchmarkOnlineCycle(b *testing.B) {
	type tc struct {
		name   string
		comps  int
		mets   int
		engine string
	}
	var cases []tc
	for _, shape := range []struct{ comps, mets int }{{8, 8}, {16, 16}} {
		series := shape.comps * shape.mets
		for _, engine := range []string{"batch", "incremental"} {
			cases = append(cases, tc{
				name:  fmt.Sprintf("%s/series=%d", engine, series),
				comps: shape.comps, mets: shape.mets,
				engine: engine,
			})
		}
	}
	order := make([]string, len(cases))
	for i, c := range cases {
		order[i] = c.name
	}

	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			opts := ServerOptions{
				AppName:     "bench",
				Shards:      4,
				StepMS:      obStepMS,
				WindowMS:    obWindowSteps * obStepMS,
				CallGraph:   obGraph(c.comps),
				Incremental: c.engine != "batch",
			}
			srv, err := NewServer(opts)
			if err != nil {
				b.Fatal(err)
			}
			frontier := int64(obPrefillSteps) * obStepMS
			if err := srv.Store().WriteSamples(obSamples(c.comps, c.mets, 0, frontier), 0); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			// Warmup cycle, so b.N iterations measure the steady state.
			if _, err := srv.RunPipelineOnce(ctx); err != nil {
				b.Fatal(err)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := srv.Store().WriteSamples(obSamples(c.comps, c.mets, frontier, frontier+obStepMS), 0); err != nil {
					b.Fatal(err)
				}
				frontier += obStepMS
				if _, err := srv.RunPipelineOnce(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			elapsed := b.Elapsed().Seconds()
			if elapsed <= 0 {
				return
			}
			onlineBench.Lock()
			if onlineBench.rows == nil {
				onlineBench.rows = map[string]onlineRow{}
			}
			onlineBench.rows[c.name] = onlineRow{
				Name:        c.name,
				Engine:      c.engine,
				Series:      c.comps * c.mets,
				WindowSteps: obWindowSteps,
				NsPerOp:     elapsed * 1e9 / float64(b.N),
				AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(b.N),
				BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(b.N),
			}
			onlineBench.Unlock()
		})
	}
	flushOnlineJSON(order)
}
