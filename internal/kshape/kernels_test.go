package kshape

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sieve-microservices/sieve/internal/mathx"
	"github.com/sieve-microservices/sieve/internal/timeseries"
)

func randomSeries(rng *rand.Rand, n, sLen int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, sLen)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		out[i] = s
	}
	return out
}

// TestSpectrumBatchedSBDMatchesPairwise pins the batching invariant:
// distances over cached per-series spectra are bit-identical to SBD on
// the raw series — not merely close. This is what lets the silhouette
// sweep compute each series' FFT once instead of once per pair.
func TestSpectrumBatchedSBDMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	series := randomSeries(rng, 12, 73)
	// Include degenerate rows: constant (zero-norm) series hit the early
	// exits.
	series = append(series, make([]float64, 73))

	d, err := PairwiseSBD(series)
	if err != nil {
		t.Fatal(err)
	}
	for i := range series {
		if d[i][i] != 0 {
			t.Fatalf("d[%d][%d] = %v, want 0", i, i, d[i][i])
		}
		for j := i + 1; j < len(series); j++ {
			want, _ := SBD(series[i], series[j])
			if d[i][j] != want {
				t.Fatalf("d[%d][%d] = %v, direct SBD = %v (must be bit-identical)", i, j, d[i][j], want)
			}
			if d[j][i] != d[i][j] {
				t.Fatalf("matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}

	// The shift must match too: sbd against cached spectra is what shape
	// extraction aligns members with.
	profiles := make([]*sbdProfile, len(series))
	for i, s := range series {
		profiles[i] = newSBDProfile(s)
	}
	var s Scratch
	for i := range series {
		for j := range series {
			wantD, wantSh := SBD(series[i], series[j])
			gotD, gotSh := profiles[i].sbd(profiles[j], &s)
			if gotD != wantD || gotSh != wantSh {
				t.Fatalf("sbd(%d,%d) = (%v,%d), SBD = (%v,%d)", i, j, gotD, gotSh, wantD, wantSh)
			}
		}
	}
}

// TestKernelSBDScratchAllocs pins the steady-state cached-spectrum
// distance at zero allocations once the scratch is warm.
func TestKernelSBDScratchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	series := randomSeries(rng, 2, 256)
	p, q := newSBDProfile(series[0]), newSBDProfile(series[1])
	var s Scratch
	p.sbd(q, &s) // warm the scratch and twiddle cache

	if allocs := testing.AllocsPerRun(50, func() {
		p.sbd(q, &s)
	}); allocs != 0 {
		t.Fatalf("warm sbd allocates %v times per call, want 0", allocs)
	}
}

// TestScratchClusterMatchesFresh checks that reusing one Scratch across
// many clustering runs leaves results bit-identical to fresh-state runs
// — the reuse pattern of the silhouette sweep's per-worker buffers.
func TestScratchClusterMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	series := randomSeries(rng, 10, 48)
	p, err := prepare(series)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 3, Seed: 1}

	var reused Scratch
	for run := 0; run < 3; run++ {
		var fresh Scratch
		want, _, err := clusterOnce(p, opts, &fresh)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := clusterOnce(p, opts, &reused)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Assignments) != len(want.Assignments) {
			t.Fatalf("run %d: %d assignments vs %d", run, len(got.Assignments), len(want.Assignments))
		}
		for i := range want.Assignments {
			if got.Assignments[i] != want.Assignments[i] {
				t.Fatalf("run %d: assignment[%d] = %d, fresh = %d", run, i, got.Assignments[i], want.Assignments[i])
			}
		}
		for c := range want.Centroids {
			for j := range want.Centroids[c] {
				if got.Centroids[c][j] != want.Centroids[c][j] {
					t.Fatalf("run %d: centroid[%d][%d] = %v, fresh = %v", run, c, j, got.Centroids[c][j], want.Centroids[c][j])
				}
			}
		}
	}
}

// referenceExtractShape is extractShape with the operator applied one
// member row at a time, as it was before the four-row blocks.
func referenceExtractShape(aligned [][]float64) []float64 {
	sLen := len(aligned[0])
	centered := make([]float64, sLen)
	tmp := make([]float64, len(aligned))
	apply := func(dst, src []float64) {
		m := timeseries.Mean(src)
		for j, x := range src {
			centered[j] = x - m
		}
		for i, row := range aligned {
			var sum float64
			for j, v := range row {
				sum += v * centered[j]
			}
			tmp[i] = sum
		}
		for j := range dst {
			dst[j] = 0
		}
		for i, row := range aligned {
			w := tmp[i]
			if w == 0 {
				continue
			}
			for j, v := range row {
				dst[j] += w * v
			}
		}
		m = timeseries.Mean(dst)
		for j := range dst {
			dst[j] -= m
		}
	}
	return timeseries.ZNormalize(mathx.DominantEigenWith(sLen, apply, 100, 1e-9, new(mathx.EigenScratch)))
}

// TestKernelShapeExtractionBitIdentical pins the four-row operator to the
// row-at-a-time reference: member counts that leave every tail length,
// and all-zero members (zero weight) placed inside a block, at its edges
// and in the tail.
func TestKernelShapeExtractionBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var s Scratch
	for _, sLen := range []int{2, 17, 240} {
		for rows := 1; rows <= 11; rows++ {
			for _, zeroAt := range []int{-1, 0, 2, 3, rows - 1} {
				aligned := randomSeries(rng, rows, sLen)
				if zeroAt >= rows {
					continue
				}
				if zeroAt >= 0 {
					aligned[zeroAt] = make([]float64, sLen)
				}
				want := referenceExtractShape(aligned)
				got := extractShape(aligned, &s)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("len %d, %d rows, zero row %d: entry %d = %v, reference %v", sLen, rows, zeroAt, j, got[j], want[j])
					}
				}
			}
		}
	}
}
