package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/sieve-microservices/sieve/internal/granger"
	"github.com/sieve-microservices/sieve/internal/parallel"
)

// DepOptions tunes Sieve's step 3.
type DepOptions struct {
	// DelayMS is the conservative inter-component delay bound used to
	// derive the Granger lag order from the sampling grid; 0 means the
	// paper's 500 ms.
	DelayMS int64
}

func (o DepOptions) withDefaults() DepOptions {
	if o.DelayMS <= 0 {
		o.DelayMS = 500
	}
	return o
}

// DependencyEdge is one inferred metric-level dependency: From's metric
// Granger-causes To's metric.
type DependencyEdge struct {
	// From and To are components; direction follows the causality.
	From, To string
	// FromMetric and ToMetric are the representative metrics involved.
	FromMetric, ToMetric string
	// LagMS is the predictive lag in milliseconds (lag order x grid).
	LagMS int64
	// PValue and F come from the winning F-test.
	PValue, F float64
}

// DependencyGraph is the output of step 3.
type DependencyGraph struct {
	// Edges are all retained metric-level dependencies.
	Edges []DependencyEdge
	// Bidirectional counts the edges filtered as spurious.
	Bidirectional int
	// Tested counts the metric pairs Granger-tested; a pair whose series
	// are too short or degenerate for the test is not counted.
	Tested int
}

// ComponentPairs returns the distinct (from, to) component pairs with at
// least one edge, sorted.
func (g *DependencyGraph) ComponentPairs() [][2]string {
	seen := map[[2]string]bool{}
	for _, e := range g.Edges {
		seen[[2]string{e.From, e.To}] = true
	}
	out := make([][2]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// EdgesBetween returns the edges from one component to another.
func (g *DependencyGraph) EdgesBetween(from, to string) []DependencyEdge {
	var out []DependencyEdge
	for _, e := range g.Edges {
		if e.From == from && e.To == to {
			out = append(out, e)
		}
	}
	return out
}

// MostFrequentMetric returns the component/metric key appearing in the
// most Granger relations (either side of an edge), with its count (ties
// broken lexicographically for determinism). The autoscaling engine uses
// it as its scaling signal (§4.1 step 1).
func (g *DependencyGraph) MostFrequentMetric() (string, int) {
	freq := map[string]int{}
	for _, e := range g.Edges {
		freq[e.From+"/"+e.FromMetric]++
		freq[e.To+"/"+e.ToMetric]++
	}
	keys := make([]string, 0, len(freq))
	for k := range freq {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best, bestN := "", 0
	for _, k := range keys {
		if freq[k] > bestN {
			best, bestN = k, freq[k]
		}
	}
	return best, bestN
}

// DOT renders the component-level dependency graph in Graphviz format.
func (g *DependencyGraph) DOT() string {
	counts := map[[2]string]int{}
	for _, e := range g.Edges {
		counts[[2]string{e.From, e.To}]++
	}
	var b strings.Builder
	b.WriteString("digraph dependencies {\n")
	for _, p := range g.ComponentPairs() {
		fmt.Fprintf(&b, "  %q -> %q [label=%d];\n", p[0], p[1], counts[p])
	}
	b.WriteString("}\n")
	return b.String()
}

// pairResult collects one communicating pair's Granger outcomes; slots
// are merged in pair order so the parallel path stays deterministic.
type pairResult struct {
	edges         []DependencyEdge
	tested        int
	bidirectional int
}

// IdentifyDependenciesContext performs Sieve's step 3: for every
// communicating component pair (from the call graph), it Granger-tests
// each representative metric of one side against each representative of
// the other, in both directions, keeping significant unidirectional
// relationships and discarding bidirectional ones as confounded (§3.3).
// It stops early when ctx is done. A first fan-out prepares every
// representative once (granger.Prepare); a second runs one task per
// communicating pair (the cluster-pair Granger tests run inside the
// task), both on runtime.GOMAXPROCS(0) workers. Edges and the
// Tested/Bidirectional counters are accumulated per task and merged
// race-free in pair order before the final sort (whose comparator is
// tie-free over the edge fields), so the graph is bit-identical to the
// sequential path at any worker count.
func IdentifyDependenciesContext(ctx context.Context, ds *Dataset, red Reduction, opts DepOptions) (*DependencyGraph, error) {
	opts = opts.withDefaults()
	if ds.CallGraph == nil {
		return nil, fmt.Errorf("core: dataset has no call graph")
	}
	maxLag := granger.LagSamples(opts.DelayMS, ds.StepMS)
	gopts := granger.Options{MaxLag: maxLag}

	pairs := ds.CallGraph.CommunicatingPairs()
	// One Granger scratch per pool worker: tasks index by worker id, so
	// buffer reuse is race-free without any locking or sync.Pool.
	workers := parallel.Workers(0)
	scratches := make([]granger.Scratch, workers)

	// A representative's stationarity check and restricted fits depend on
	// no partner, so a pre-pass prepares each representative of every
	// component a pair names once, in parallel: prepared[c][i] is cluster
	// i's of component c, nil when the dataset lacks the series.
	type rep struct {
		component string
		cluster   int
	}
	prepared := map[string][]*granger.Prepared{}
	var reps []rep
	for _, p := range pairs {
		if red[p[0]] == nil || red[p[1]] == nil {
			continue
		}
		for _, c := range p {
			if _, ok := prepared[c]; !ok {
				prepared[c] = make([]*granger.Prepared, len(red[c].Clusters))
				for i := range red[c].Clusters {
					reps = append(reps, rep{c, i})
				}
			}
		}
	}
	err := parallel.ForEachWorker(ctx, workers, len(reps), func(ctx context.Context, worker, i int) error {
		r := reps[i]
		if sr := ds.Get(r.component, red[r.component].Clusters[r.cluster].Representative); sr != nil {
			prepared[r.component][r.cluster] = granger.Prepare(sr.Values, gopts, &scratches[worker])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	results := make([]pairResult, len(pairs))
	err = parallel.ForEachWorker(ctx, workers, len(pairs), func(ctx context.Context, worker, i int) error {
		scratch := &scratches[worker]
		a, b := pairs[i][0], pairs[i][1]
		ra, rb := red[a], red[b]
		if ra == nil || rb == nil {
			return nil
		}
		res := &results[i]
		for ia, ca := range ra.Clusters {
			if err := ctx.Err(); err != nil {
				return err
			}
			for ib, cb := range rb.Clusters {
				pa, pb := prepared[a][ia], prepared[b][ib]
				if pa == nil || pb == nil {
					continue
				}
				dir, xy, yx, err := granger.DirectionPrepared(pa, pb, scratch)
				if err != nil {
					// Series too short or degenerate for this pair: no
					// test ran.
					continue
				}
				res.tested++
				switch dir {
				case granger.XCausesY:
					res.edges = append(res.edges, edgeFrom(a, b, ca.Representative, cb.Representative, xy, ds.StepMS))
				case granger.YCausesX:
					res.edges = append(res.edges, edgeFrom(b, a, cb.Representative, ca.Representative, yx, ds.StepMS))
				case granger.Bidirectional:
					res.bidirectional++
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &DependencyGraph{}
	for i := range results {
		out.Edges = append(out.Edges, results[i].edges...)
		out.Tested += results[i].tested
		out.Bidirectional += results[i].bidirectional
	}
	sort.Slice(out.Edges, func(i, j int) bool {
		ei, ej := out.Edges[i], out.Edges[j]
		if ei.From != ej.From {
			return ei.From < ej.From
		}
		if ei.To != ej.To {
			return ei.To < ej.To
		}
		if ei.FromMetric != ej.FromMetric {
			return ei.FromMetric < ej.FromMetric
		}
		return ei.ToMetric < ej.ToMetric
	})
	return out, nil
}

func edgeFrom(from, to, fromMetric, toMetric string, t *granger.TestResult, stepMS int64) DependencyEdge {
	return DependencyEdge{
		From:       from,
		To:         to,
		FromMetric: fromMetric,
		ToMetric:   toMetric,
		LagMS:      int64(t.Lag) * stepMS,
		PValue:     t.PValue,
		F:          t.F,
	}
}
