package kshape

import (
	"context"
	"errors"
	"fmt"
)

// ClusterWarmContext is the warm-started counterpart of ChooseKContext:
// instead of sweeping every candidate k, it clusters once at the fixed k
// a previous cycle converged on, seeded with that cycle's assignments,
// and scores the single result. On a sliding window whose content drifts
// slowly the previous fixed point is an excellent starting point, so the
// refinement loop converges in a fraction of the iterations and the
// sweep over kMin..kMax is skipped entirely. The caller compares
// the returned silhouette against the last full sweep's score to decide
// when the shortcut has degraded and a re-sweep is due.
//
// initial must assign every series to a cluster in [0, k); series counts
// below k (clusters can die when metrics disappear) are rejected just
// like in ChooseK, signalling the caller to fall back to a full sweep.
//
// The scoring distance matrix is returned alongside the result so a
// caller that rejects the warm clustering (quality degraded) can hand
// it to ChooseKFromDist instead of paying the O(n^2) PairwiseSBD again
// for the re-sweep. It is nil for the trivial single-series case.
func ClusterWarmContext(ctx context.Context, series [][]float64, initial []int, k int, seed int64) (*SweepResult, [][]float64, error) {
	n := len(series)
	if n == 0 {
		return nil, nil, errors.New("kshape: no series")
	}
	if k < 1 || k > n {
		return nil, nil, fmt.Errorf("kshape: warm k=%d out of range for %d series", k, n)
	}
	if len(initial) != n {
		return nil, nil, fmt.Errorf("kshape: %d warm assignments for %d series", len(initial), n)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if n == 1 {
		res, err := Cluster(series, Options{K: 1, Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		return &SweepResult{Result: res, Silhouette: 0, Scores: map[int]float64{1: 0}}, nil, nil
	}

	// One prepare serves both the warm clustering and the scoring
	// distance matrix, so each series is normalized and transformed once.
	p, err := prepare(series)
	if err != nil {
		return nil, nil, err
	}
	var s Scratch
	res, _, err := clusterPrepared(p, Options{K: k, Seed: seed, InitialAssignments: initial}, &s)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	dist := pairwiseFromProfiles(p.profiles, &s)
	score, err := Silhouette(dist, res.Assignments)
	if err != nil {
		return nil, nil, err
	}
	return &SweepResult{Result: res, Silhouette: score, Scores: map[int]float64{k: score}}, dist, nil
}
