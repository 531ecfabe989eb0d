package kshape

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/sieve-microservices/sieve/internal/parallel"
)

// Silhouette computes the mean silhouette coefficient of an assignment
// (cluster ids in [0, len(assign))) using a precomputed distance matrix
// (use PairwiseSBD). Values range from -1 (wrong assignment) to 1
// (perfect); the paper selects the cluster count k with the best
// silhouette (§3.2). Points in singleton clusters contribute 0 by
// convention.
func Silhouette(dist [][]float64, assign []int) (float64, error) {
	n := len(assign)
	if n == 0 {
		return 0, errors.New("kshape: empty assignment")
	}
	if len(dist) != n {
		return 0, fmt.Errorf("kshape: distance matrix has %d rows for %d points", len(dist), n)
	}

	// Members by cluster id, ascending point index within a cluster, so
	// every sum below adds in one fixed order.
	var clusters [][]int
	for i, a := range assign {
		if a < 0 || a >= n {
			return 0, fmt.Errorf("kshape: point %d has cluster id %d, want [0,%d)", i, a, n)
		}
		for len(clusters) <= a {
			clusters = append(clusters, nil)
		}
		clusters[a] = append(clusters[a], i)
	}
	occupied := 0
	for _, members := range clusters {
		if len(members) > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		// A single cluster has no between-cluster separation; silhouette
		// is undefined, returned as 0 so k=1 never wins a sweep.
		return 0, nil
	}

	var total float64
	for i := 0; i < n; i++ {
		own := clusters[assign[i]]
		if len(own) <= 1 {
			continue // contributes 0
		}
		var a float64
		for _, j := range own {
			if j != i {
				a += dist[i][j]
			}
		}
		a /= float64(len(own) - 1)

		b := math.Inf(1)
		for c, members := range clusters {
			if c == assign[i] || len(members) == 0 {
				continue
			}
			var d float64
			for _, j := range members {
				d += dist[i][j]
			}
			d /= float64(len(members))
			if d < b {
				b = d
			}
		}

		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
		}
	}
	return total / float64(n), nil
}

// SweepResult is the outcome of a ChooseKContext sweep.
type SweepResult struct {
	// Result is the clustering with the best silhouette.
	*Result
	// Silhouette is the winning score.
	Silhouette float64
	// Scores maps each attempted k to its silhouette.
	Scores map[int]float64
}

// ChooseKContext clusters the series for every k in [kMin, kMax] and
// returns the clustering with the highest silhouette score. The paper
// found k <= 7 sufficient for components with up to 300 metrics. names,
// when non-nil, seeds the initial assignments by metric-name similarity,
// and each k is then clustered exactly once; with nil names each k is the
// best of three randomly initialized runs (Options.Restarts). The per-k
// clustering runs fan out to `workers` goroutines (0 means GOMAXPROCS,
// <1 clamps to 1) and stop early when ctx is done. Each candidate k keeps
// its own fixed seed and the winner is selected in ascending-k order
// afterwards, so the result is identical to the sequential sweep at any
// worker count.
func ChooseKContext(ctx context.Context, series [][]float64, names []string, kMin, kMax int, seed int64, workers int) (*SweepResult, error) {
	return ChooseKFromDist(ctx, series, nil, names, kMin, kMax, seed, workers)
}

// ChooseKFromDist is ChooseKContext with an optional caller-supplied
// distance matrix (PairwiseSBD over the z-normalized series, the one the
// sweep would compute itself when dist is nil). sievebench's traced
// replay passes the matrix it has just timed, so the sweep's own cost
// is measured apart from the O(n^2) matrix.
func ChooseKFromDist(ctx context.Context, series [][]float64, dist [][]float64, names []string, kMin, kMax int, seed int64, workers int) (*SweepResult, error) {
	n := len(series)
	if n == 0 {
		return nil, errors.New("kshape: no series")
	}
	if kMin < 1 || kMax < kMin {
		return nil, fmt.Errorf("kshape: invalid k range [%d,%d]", kMin, kMax)
	}
	if kMax > n {
		kMax = n
	}
	if kMin > n {
		kMin = n
	}
	if names != nil && len(names) != n {
		return nil, fmt.Errorf("kshape: %d names for %d series", len(names), n)
	}

	// One series (or a degenerate range) cannot be swept.
	if n == 1 {
		res, err := Cluster(series, Options{K: 1, Seed: seed})
		if err != nil {
			return nil, err
		}
		return &SweepResult{Result: res, Silhouette: 0, Scores: map[int]float64{1: 0}}, nil
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Normalize and transform every series exactly once: the cached
	// spectra serve the distance matrix and every candidate k of the
	// sweep (each of which used to recompute all of them per restart).
	// Profiles are immutable, so the per-k goroutines share them freely.
	p, err := prepare(series)
	if err != nil {
		return nil, err
	}

	// The distance matrix is independent of k; compute it once (or
	// reuse the caller's).
	if dist == nil {
		var s Scratch
		dist = pairwiseFromProfiles(p.profiles, &s)
	}

	// Sweep the candidate cluster counts concurrently; each attempt
	// writes only its own slot, keeping the merge deterministic. Scratches
	// are per worker (indexed by worker id, no pooling), so reuse is
	// race-free by construction — and so is each one's centroid memo,
	// which lets a candidate k reuse the extractions and distances of the
	// k its worker ran before, and is freed with the scratches on return.
	type attempt struct {
		res   *Result
		score float64
	}
	attempts := make([]attempt, kMax-kMin+1)
	scratches := make([]Scratch, parallel.Workers(workers))
	// One farthest-point traversal over the names serves every k: the
	// seeds for k clusters are a prefix of the seeds for kMax.
	var seeding *nameSeeding
	if names != nil {
		seeding = newNameSeeding(names, kMax)
	}
	err = parallel.ForEachWorker(ctx, workers, len(attempts), func(_ context.Context, worker, i int) error {
		// Name seeding fixes the starting point, so each k is clustered
		// once; only the unseeded sweep has random starts to restart.
		opts := Options{K: kMin + i, Seed: seed, Restarts: 3}
		if seeding != nil {
			opts.InitialAssignments = seeding.assignments(opts.K)
		}
		res, _, err := clusterPrepared(p, opts, &scratches[worker])
		if err != nil {
			return err
		}
		score, err := Silhouette(dist, res.Assignments)
		if err != nil {
			return err
		}
		attempts[i] = attempt{res: res, score: score}
		return nil
	})
	if err != nil {
		return nil, err
	}

	best := &SweepResult{Silhouette: math.Inf(-1), Scores: map[int]float64{}}
	for i, a := range attempts {
		k := kMin + i
		best.Scores[k] = a.score
		if a.score > best.Silhouette {
			best.Silhouette = a.score
			best.Result = a.res
		}
	}
	return best, nil
}
