package granger

import (
	"math/rand"
	"testing"
)

// coupledPair synthesizes y driven by x's past, so the test exercises the
// full path: stationarity checks, both lag designs, both fits, F-test.
func coupledPair(rng *rand.Rand, n int) (x, y []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	for t := 1; t < n; t++ {
		x[t] = 0.5*x[t-1] + rng.NormFloat64()
		y[t] = 0.4*y[t-1] + 0.8*x[t-1] + 0.1*rng.NormFloat64()
	}
	return x, y
}

// TestScratchDirectionMatchesFresh pins the pooling invariant: a Scratch
// reused across many pairs (the dependency fan-out's per-worker pattern)
// produces bit-identical classifications and statistics to fresh-state
// calls.
func TestScratchDirectionMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	opts := Options{MaxLag: 2}
	var reused Scratch
	for pair := 0; pair < 5; pair++ {
		x, y := coupledPair(rng, 120)
		wantDir, wantXY, wantYX, wantErr := Direction(x, y, opts)
		gotDir, gotXY, gotYX, gotErr := DirectionPrepared(Prepare(x, opts, &reused), Prepare(y, opts, &reused), &reused)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("pair %d: error mismatch: %v vs %v", pair, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if gotDir != wantDir {
			t.Fatalf("pair %d: direction %v, fresh %v", pair, gotDir, wantDir)
		}
		if *gotXY != *wantXY || *gotYX != *wantYX {
			t.Fatalf("pair %d: results %+v/%+v, fresh %+v/%+v", pair, gotXY, gotYX, wantXY, wantYX)
		}
	}
}

// TestScratchDirectionAllocs pins the steady-state allocation COUNT of a
// pooled Granger direction test as independent of series length: the lag
// designs and regression workspace come from the scratch, so longer
// windows grow bytes, not allocation counts.
func TestScratchDirectionAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	opts := Options{MaxLag: 1}
	measure := func(n int) float64 {
		x, y := coupledPair(rng, n)
		var s Scratch
		if _, _, _, err := DirectionPrepared(Prepare(x, opts, &s), Prepare(y, opts, &s), &s); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, _, err := DirectionPrepared(Prepare(x, opts, &s), Prepare(y, opts, &s), &s); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1 := measure(128)
	a2 := measure(1024)
	// 8x the samples must not change the allocation count beyond noise:
	// every O(rows) buffer is pooled.
	if a2 > a1+8 {
		t.Fatalf("pooled Granger allocations grew with series length: %v -> %v allocs/op", a1, a2)
	}
}
