package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/sieve-microservices/sieve/internal/kshape"
	"github.com/sieve-microservices/sieve/internal/parallel"
	"github.com/sieve-microservices/sieve/internal/timeseries"
)

// The silhouette sweep's range of cluster counts: the paper found 7
// sufficient for components with up to 300 metrics.
const (
	kMin = 2
	kMax = 7
)

// ReduceOptions tunes Sieve's step 2. Its zero value runs the paper's
// algorithm: the variance filter at 0.002, then a name-seeded k-Shape
// sweep over k in [2,7].
type ReduceOptions struct {
	// VarianceThreshold drops unvarying metrics; 0 means the paper's
	// 0.002.
	VarianceThreshold float64
}

// DefaultReduceOptions returns the paper's parameters.
func DefaultReduceOptions() ReduceOptions {
	return ReduceOptions{VarianceThreshold: timeseries.LowVarianceThreshold}
}

func (o ReduceOptions) withDefaults() ReduceOptions {
	if o.VarianceThreshold <= 0 {
		o.VarianceThreshold = timeseries.LowVarianceThreshold
	}
	return o
}

// Cluster describes one metric cluster of a component.
type Cluster struct {
	// ID is the cluster index within the component.
	ID int
	// Metrics are the member metric names, sorted.
	Metrics []string
	// Representative is the member closest (SBD) to the centroid; it is
	// the metric Sieve keeps monitoring for this cluster.
	Representative string
}

// ComponentReduction is the outcome of step 2 for one component.
type ComponentReduction struct {
	// Component names the microservice.
	Component string
	// Total is the number of captured metrics before any filtering.
	Total int
	// Filtered lists metrics dropped by the variance filter, sorted.
	Filtered []string
	// Clusters are the k-Shape clusters over the surviving metrics.
	Clusters []Cluster
	// K is the chosen cluster count, Silhouette its quality score.
	K int
	// Silhouette is the clustering quality in [-1, 1].
	Silhouette float64
	// Assignments maps surviving metric names to cluster IDs.
	Assignments map[string]int
}

// Reduction is the step-2 result for the whole application.
type Reduction map[string]*ComponentReduction

// TotalBefore sums captured metrics across components.
func (r Reduction) TotalBefore() int {
	n := 0
	for _, cr := range r {
		n += cr.Total
	}
	return n
}

// TotalAfter sums representative metrics across components.
func (r Reduction) TotalAfter() int {
	n := 0
	for _, cr := range r {
		n += len(cr.Clusters)
	}
	return n
}

// AllowlistKeys returns the representative series as "component/metric"
// keys for the collector allowlist, sorted.
func (r Reduction) AllowlistKeys() []string {
	var out []string
	for comp, cr := range r {
		for _, c := range cr.Clusters {
			out = append(out, comp+"/"+c.Representative)
		}
	}
	sort.Strings(out)
	return out
}

// ReduceContext performs Sieve's step 2 on every component: drop
// unvarying metrics (var <= threshold), cluster the rest with k-Shape
// choosing k by silhouette, and pick each cluster's representative
// (smallest SBD to the centroid). It fans out one task per component to
// runtime.GOMAXPROCS(0) workers and stops early when ctx is done.
//
// Determinism contract, here and in IdentifyDependenciesContext: a task
// only writes to its own index's slot, the caller merges slots in index
// order, and any per-task randomness is seeded from stable inputs
// (component name, candidate k). The merged output is therefore
// bit-identical to the sequential path at any worker count.
func ReduceContext(ctx context.Context, ds *Dataset, opts ReduceOptions) (Reduction, error) {
	opts = opts.withDefaults()
	components := ds.Components()
	crs := make([]*ComponentReduction, len(components))
	// Each component's silhouette sweep gets the worker budget left over
	// by the component-level fan-out (usually 1 — see innerBudget).
	workers := parallel.Workers(0)
	sweepWorkers := innerBudget(workers, len(components))
	// Widest component first: a sweep's cost grows with its series count,
	// and a wide component picked up last would leave the other workers
	// idle while it finishes. Slots stay addressed by name order, so the
	// dispatch order never shows in the result.
	order := make([]int, len(components))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(ds.Series[components[order[a]]]) > len(ds.Series[components[order[b]]])
	})
	err := parallel.ForEach(ctx, workers, len(components), func(ctx context.Context, task int) error {
		i := order[task]
		cr, err := reduceComponent(ctx, ds, components[i], opts, sweepWorkers)
		if err != nil {
			return fmt.Errorf("core: reducing %s: %w", components[i], err)
		}
		crs[i] = cr
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := Reduction{}
	for i, component := range components {
		out[component] = crs[i]
	}
	return out, nil
}

// innerBudget sizes a pool nested inside an outer fan-out of outerTasks
// tasks (Reduce's per-component silhouette sweeps). When the outer stage
// already fills the budget, nested pools run sequentially — without this
// a 16-way Reduce would spawn 16 sweeps of up to 16 workers each,
// oversubscribing CPU-bound goroutines ~outerTasks-fold. With fewer
// outer tasks than workers, the leftover budget is split evenly
// (ceiling) so small topologies still use the whole machine. Worker
// counts never affect results, only scheduling.
func innerBudget(workers, outerTasks int) int {
	if outerTasks <= 0 || outerTasks >= workers {
		return 1
	}
	return (workers + outerTasks - 1) / outerTasks
}

func reduceComponent(ctx context.Context, ds *Dataset, component string, opts ReduceOptions, sweepWorkers int) (*ComponentReduction, error) {
	cr, kept, series := filterComponent(ds, component, opts)
	if len(kept) < 2 {
		return cr, nil
	}
	// The kept names seed every k (§3.2), so the random seed 0 is never
	// drawn on.
	sweep, err := kshape.ChooseKFromDist(ctx, series, nil, kept, kMin, kMax, 0, sweepWorkers)
	if err != nil {
		return nil, err
	}
	finishReduction(cr, kept, sweep)
	return cr, nil
}

// filterComponent applies the variance filter (§3.2: unvarying metrics
// carry no load signal) and handles the trivial 0/1-survivor cases; kept
// and series (sorted by metric name) feed the clustering step.
func filterComponent(ds *Dataset, component string, opts ReduceOptions) (cr *ComponentReduction, kept []string, series [][]float64) {
	seriesByName := ds.Series[component]
	cr = &ComponentReduction{
		Component:   component,
		Total:       len(seriesByName),
		Assignments: map[string]int{},
	}

	names := make([]string, 0, len(seriesByName))
	for name := range seriesByName {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		vals := seriesByName[name].Values
		if timeseries.Variance(vals) <= opts.VarianceThreshold || timeseries.HasNaN(vals) {
			cr.Filtered = append(cr.Filtered, name)
			continue
		}
		kept = append(kept, name)
		series = append(series, vals)
	}
	if len(kept) == 1 {
		cr.K = 1
		cr.Clusters = []Cluster{{ID: 0, Metrics: kept, Representative: kept[0]}}
		cr.Assignments[kept[0]] = 0
	}
	return cr, kept, series
}

// finishReduction turns a clustering result into the component's
// reduction: dense cluster IDs, sorted member lists, and the member
// closest (SBD) to each centroid as the representative — by the distances
// the clustering's last assignment step already held.
func finishReduction(cr *ComponentReduction, kept []string, sweep *kshape.SweepResult) {
	cr.K = sweep.K
	cr.Silhouette = sweep.Silhouette

	for c := 0; c < sweep.K; c++ {
		members := sweep.Members(c)
		if len(members) == 0 {
			continue
		}
		cluster := Cluster{ID: len(cr.Clusters)}
		bestDist, bestName := 3.0, ""
		for _, idx := range members {
			name := kept[idx]
			cluster.Metrics = append(cluster.Metrics, name)
			if d := sweep.Distances[idx]; d < bestDist {
				bestDist, bestName = d, name
			}
		}
		sort.Strings(cluster.Metrics)
		cluster.Representative = bestName
		for _, name := range cluster.Metrics {
			cr.Assignments[name] = cluster.ID
		}
		cr.Clusters = append(cr.Clusters, cluster)
	}
}
