package kshape

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// This file holds the sweep's centroid memo to the reference loop in
// fastpath_test.go, which extracts every cluster's centroid every
// iteration and correlates every (centroid, series) pair it meets.

// capturedComponent loads testdata/sharelatex_window.json: every other
// one of the 52 variance-filtered series of ShareLatex's spelling
// component (26 of them, in name order) over the 240-step window that
// testdata/oscillating_window.json was cut from — window 6 of
// core.TestReduceHashPinned's capture.
func capturedComponent(t *testing.T) (names []string, series [][]float64) {
	t.Helper()
	data, err := os.ReadFile("testdata/sharelatex_window.json")
	if err != nil {
		t.Fatal(err)
	}
	var w struct {
		Names  []string    `json:"names"`
		Series [][]float64 `json:"series"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	return w.Names, w.Series
}

// sweepOptions is the silhouette sweep's option set for one k: name-seeded
// when there are names, one random start otherwise.
func sweepOptions(names []string, k int) Options {
	opts := Options{K: k, Seed: 11}
	if names != nil {
		opts.InitialAssignments = nameSeeds(names, k)
	}
	return opts
}

// TestKernelMemoSweepMatchesReference: whole sweeps through one Scratch —
// so every k after the first runs on a memo the earlier ones filled —
// against the reference loop on fresh state: assignments, iterations,
// centroid bits, centroid profiles and per-series distances.
func TestKernelMemoSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	capturedNames, captured := capturedComponent(t)
	orbitNames, orbit, _ := capturedWindow(t)
	families, _ := twoShapeFamilies(rng, 7, 96)
	// Duplicates make exact ties, and equal clusters under different
	// members; the constant is a zero-norm member.
	families = append(families, families[0], families[0], families[8], make([]float64, 96))

	cases := []struct {
		name   string
		names  []string
		series [][]float64
		kMax   int
	}{
		{"captured component, name-seeded", capturedNames, captured, 7},
		{"captured oscillating window, name-seeded", orbitNames, orbit, 7},
		{"captured component, random start", nil, captured[:14], 5},
		{"constructed periodic orbit", nil, oscillatingSeries(), 4},
		{"random", nil, randomSeries(rng, 17, 64), 6},
		{"families with duplicates and a constant", nil, families, 6},
	}
	for _, tc := range cases {
		p, err := prepare(tc.series)
		if err != nil {
			t.Fatal(err)
		}
		type reference struct {
			res      *Result
			profiles []*sbdProfile
		}
		wants := map[int]reference{}
		// Ascending k is the sweep's order on one worker; descending
		// leaves the memo in a different state before every k.
		var up, down Scratch
		for i := 0; i <= tc.kMax-2; i++ {
			for _, run := range []struct {
				s *Scratch
				k int
			}{{&up, 2 + i}, {&down, tc.kMax - i}} {
				opts := sweepOptions(tc.names, run.k)
				got, gotCents, err := clusterOnce(context.Background(), p, opts, run.s)
				if err != nil {
					t.Fatal(err)
				}
				want, ok := wants[run.k]
				if !ok {
					var refS Scratch
					want.res, want.profiles = referenceClusterOnce(p, opts, &refS)
					wants[run.k] = want
				}
				requireSameClustering(t, fmt.Sprintf("%s k=%d", tc.name, run.k), got, want.res, gotCents, want.profiles)
			}
		}
		if up.eigenRuns == 0 || len(up.memo.byKey) != up.eigenRuns {
			t.Fatalf("%s: %d power iterations for %d memoized extractions", tc.name, up.eigenRuns, len(up.memo.byKey))
		}
	}

	// The constructed orbit from its fixed start, as the fixed-point test
	// runs it, on a memo another start has filled.
	p, err := prepare(oscillatingSeries())
	if err != nil {
		t.Fatal(err)
	}
	var s, refS Scratch
	for _, init := range [][]int{{0, 1, 0, 1, 0}, {0, 0, 0, 1, 1}, {0, 1, 0, 1, 0}} {
		opts := Options{K: 2, InitialAssignments: init}
		got, gotCents, err := clusterOnce(context.Background(), p, opts, &s)
		if err != nil {
			t.Fatal(err)
		}
		want, wantProfiles := referenceClusterOnce(p, opts, &refS)
		requireSameClustering(t, fmt.Sprintf("constructed orbit from %v", init), got, want, gotCents, wantProfiles)
	}
}

// requireSameSweep compares two sweep outcomes bit for bit.
func requireSameSweep(t *testing.T, what string, got, want *SweepResult) {
	t.Helper()
	if got.K != want.K || math.Float64bits(got.Silhouette) != math.Float64bits(want.Silhouette) || got.Iterations != want.Iterations {
		t.Fatalf("%s: k=%d silhouette=%v iterations=%d, want k=%d silhouette=%v iterations=%d", what,
			got.K, got.Silhouette, got.Iterations, want.K, want.Silhouette, want.Iterations)
	}
	if len(got.Scores) != len(want.Scores) {
		t.Fatalf("%s: %d scores, want %d", what, len(got.Scores), len(want.Scores))
	}
	for k, score := range want.Scores {
		if math.Float64bits(got.Scores[k]) != math.Float64bits(score) {
			t.Fatalf("%s: score[%d] = %v, want %v", what, k, got.Scores[k], score)
		}
	}
	for i := range want.Assignments {
		if got.Assignments[i] != want.Assignments[i] || math.Float64bits(got.Distances[i]) != math.Float64bits(want.Distances[i]) {
			t.Fatalf("%s: series %d in cluster %d at %v, want cluster %d at %v", what, i,
				got.Assignments[i], got.Distances[i], want.Assignments[i], want.Distances[i])
		}
	}
	for c := range want.Centroids {
		for j, v := range want.Centroids[c] {
			if math.Float64bits(got.Centroids[c][j]) != math.Float64bits(v) {
				t.Fatalf("%s: centroid[%d][%d] = %v, want %v", what, c, j, got.Centroids[c][j], v)
			}
		}
	}
}

// TestKernelSweepWorkersBitIdentical: how the candidate k fall to workers
// decides what each worker's memo holds and nothing else — the sweep at
// 2 and 4 workers against the sequential one (CI runs this under -race:
// memos are per worker, the prepared set and its profiles are shared).
func TestKernelSweepWorkersBitIdentical(t *testing.T) {
	names, series := capturedComponent(t)
	rng := rand.New(rand.NewSource(5))
	families, _ := twoShapeFamilies(rng, 9, 96)
	for _, tc := range []struct {
		name   string
		names  []string
		series [][]float64
	}{{"captured component, name-seeded", names, series}, {"families, random start", nil, families}} {
		want, err := ChooseKFromDist(context.Background(), tc.series, nil, tc.names, 2, 7, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			got, err := ChooseKFromDist(context.Background(), tc.series, nil, tc.names, 2, 7, 3, workers)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSweep(t, fmt.Sprintf("%s, %d workers", tc.name, workers), got, want)
		}
	}
}

// TestScratchReusedAcrossPreparedSets: the memo's keys are series indices,
// which mean nothing in another prepared set — a Scratch carried from one
// set to another of the same size must start a new memo, or it would hand
// the second set the first one's centroids.
func TestScratchReusedAcrossPreparedSets(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	a := randomSeries(rng, 12, 64)
	b := randomSeries(rng, 12, 64)
	// The same series under other indices: equal keys would even align.
	rotated := append(append([][]float64(nil), a[5:]...), a[:5]...)
	var reused Scratch
	for round, series := range [][][]float64{a, b, rotated, a} {
		p, err := prepare(series)
		if err != nil {
			t.Fatal(err)
		}
		for k := 2; k <= 5; k++ {
			opts := Options{K: k, Seed: 4}
			var fresh Scratch
			want, wantCents, err := clusterOnce(context.Background(), p, opts, &fresh)
			if err != nil {
				t.Fatal(err)
			}
			got, gotCents, err := clusterOnce(context.Background(), p, opts, &reused)
			if err != nil {
				t.Fatal(err)
			}
			requireSameClustering(t, fmt.Sprintf("set %d k=%d", round, k), got, want, gotCents, profilesOf(wantCents))
		}
		if reused.memo.p != p {
			t.Fatalf("set %d: the scratch still holds another set's memo", round)
		}
	}
}

// TestKernelSweepCorrelationBudget pins how much work one name-seeded
// sweep (k = 2..7, one worker) of the captured component does: the counts
// repeat exactly, so a change that makes the sweep correlate a pair twice
// again, or re-run a power iteration it has the answer to, moves them.
func TestKernelSweepCorrelationBudget(t *testing.T) {
	// The same sweep at the commit before the memo (a410e77), counted at
	// the same two places: its assignment step pruned by the spectral
	// bound like this one's, but every member was re-correlated to be
	// aligned and every cluster re-extracted every iteration.
	const beforeCorrelations, beforeEigenRuns, beforeEigenRows = 1798, 85, 494
	const sweepCorrelations, sweepEigenRuns, sweepEigenRows = 835, 49, 366

	names, series := capturedComponent(t)
	p, err := prepare(series)
	if err != nil {
		t.Fatal(err)
	}
	var s, refS Scratch
	refBefore := referenceCorrelations
	for k := 2; k <= 7; k++ {
		opts := sweepOptions(names, k)
		if _, _, err := clusterOnce(context.Background(), p, opts, &s); err != nil {
			t.Fatal(err)
		}
		referenceClusterOnce(p, opts, &refS)
	}
	refCorrelations := referenceCorrelations - refBefore + refS.correlations
	t.Logf("memo sweep: %d correlations, %d power iterations over %d member rows; before the memo %d, %d over %d rows; every-distance reference %d, %d over %d rows",
		s.correlations, s.eigenRuns, s.eigenRows, beforeCorrelations, beforeEigenRuns, beforeEigenRows, refCorrelations, refS.eigenRuns, refS.eigenRows)

	if runtime.GOARCH != "amd64" {
		t.Skip("counts recorded on amd64; compilers for other architectures fuse multiply-adds, round differently and may converge along another path")
	}
	if s.correlations != sweepCorrelations || s.eigenRuns != sweepEigenRuns || s.eigenRows != sweepEigenRows {
		t.Errorf("sweep did %d correlations and %d power iterations over %d rows, pinned %d, %d, %d",
			s.correlations, s.eigenRuns, s.eigenRows, sweepCorrelations, sweepEigenRuns, sweepEigenRows)
	}
	if refS.eigenRuns != beforeEigenRuns || refS.eigenRows != beforeEigenRows || refCorrelations < beforeCorrelations {
		t.Errorf("reference loop: %d power iterations over %d rows and %d correlations; before the memo the sweep extracted as often (%d over %d rows) and correlated no more (%d)",
			refS.eigenRuns, refS.eigenRows, refCorrelations, beforeEigenRuns, beforeEigenRows, beforeCorrelations)
	}
	if 10*s.correlations > 7*beforeCorrelations {
		t.Errorf("%d correlations is less than 30%% below the %d before the memo", s.correlations, beforeCorrelations)
	}
	if 4*s.eigenRows > 3*beforeEigenRows {
		t.Errorf("%d member rows through the power iteration is less than 25%% below the %d before the memo", s.eigenRows, beforeEigenRows)
	}
}
