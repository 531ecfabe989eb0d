package granger

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// causalPair builds y driven by lagged x: y_t = beta*x_{t-lag} + noise.
func causalPair(rng *rand.Rand, n, lag int, beta, noise float64) (x, y []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	for t := 0; t < n; t++ {
		x[t] = rng.NormFloat64()
	}
	for t := lag; t < n; t++ {
		y[t] = beta*x[t-lag] + rng.NormFloat64()*noise
	}
	return x, y
}

func TestDetectsPlantedCausality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := causalPair(rng, 400, 1, 0.9, 0.3)
	_, res, _, err := Direction(x, y, Options{MaxLag: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant {
		t.Fatalf("planted X->Y not detected: p=%g", res.PValue)
	}
	if res.PValue > 1e-6 {
		t.Errorf("p = %g, want tiny for strong signal", res.PValue)
	}
	if res.Lag != 1 {
		t.Errorf("lag = %d, want 1", res.Lag)
	}
}

func TestDirectionOfPlantedChain(t *testing.T) {
	// A single draw can produce a borderline reverse p-value (that is
	// what alpha=0.05 means), so demand a majority across seeds.
	correct := 0
	const trials = 10
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x, y := causalPair(rng, 500, 1, 0.9, 0.3)
		dir, _, _, err := Direction(x, y, Options{MaxLag: 1})
		if err != nil {
			t.Fatal(err)
		}
		if dir == XCausesY {
			correct++
		}
	}
	if correct < 8 {
		t.Fatalf("planted chain direction recovered in %d/%d trials, want >= 8", correct, trials)
	}
}

func TestIndependentSeriesNotSignificant(t *testing.T) {
	// Across seeds, independent noise should rarely appear causal.
	falsePositives := 0
	const trials = 40
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 300)
		y := make([]float64, 300)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		_, res, _, err := Direction(x, y, Options{MaxLag: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Significant {
			falsePositives++
		}
	}
	// Expected ~5% at alpha=0.05; allow generous slack.
	if falsePositives > 7 {
		t.Errorf("%d/%d false positives, want about 2", falsePositives, trials)
	}
}

// TestIndependentSeriesEdgeRate pins the null rate of the pair test:
// over independent AR(φ) pairs, white noise through random walks, one
// direction is significant about α of the time, and a unidirectional
// edge (what the dependency graph keeps) appears about 2α(1−α) of the
// time. The bounds leave room for 1 000 pairs' sampling error and for
// the tests' slight over-size near a unit root.
func TestIndependentSeriesEdgeRate(t *testing.T) {
	const n, pairs = 120, 1000
	ar := func(rng *rand.Rand, phi float64) []float64 {
		out := make([]float64, n)
		prev := 0.0
		for i := range out {
			prev = phi*prev + rng.NormFloat64()
			out[i] = prev
		}
		return out
	}
	var s Scratch
	opts := Options{MaxLag: 1}
	for cell, phi := range []float64{0, 0.5, 0.9, 1} {
		rng := rand.New(rand.NewSource(int64(cell + 1)))
		forward, unidirectional := 0, 0
		for i := 0; i < pairs; i++ {
			c, xy, _, err := DirectionPrepared(Prepare(ar(rng, phi), opts, &s), Prepare(ar(rng, phi), opts, &s), &s)
			if err != nil {
				t.Fatal(err)
			}
			if xy.Significant {
				forward++
			}
			if c == XCausesY || c == YCausesX {
				unidirectional++
			}
		}
		fwd, uni := float64(forward)/pairs, float64(unidirectional)/pairs
		t.Logf("AR(%g): x->y significant %.1f%%, unidirectional %.1f%%", phi, 100*fwd, 100*uni)
		if fwd < 0.03 || fwd > 0.08 {
			t.Errorf("AR(%g): x->y significant in %.1f%% of independent pairs, want 3%%–8%%", phi, 100*fwd)
		}
		if uni < 0.06 || uni > 0.14 {
			t.Errorf("AR(%g): unidirectional edge in %.1f%% of independent pairs, want 6%%–14%%", phi, 100*uni)
		}
	}
}

func TestHigherLagDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := causalPair(rng, 600, 3, 0.9, 0.3)
	_, res, _, err := Direction(x, y, Options{MaxLag: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant {
		t.Fatalf("lag-3 causality missed: p=%g", res.PValue)
	}
	if res.Lag < 3 {
		t.Errorf("best lag = %d, want >= 3 (the true lag)", res.Lag)
	}
}

func TestNonStationaryInputsAreDifferenced(t *testing.T) {
	// Random-walk driver with y responding to x's increments. Without
	// differencing this setup is the classic spurious-regression trap.
	rng := rand.New(rand.NewSource(6))
	n := 500
	x := make([]float64, n)
	for t := 1; t < n; t++ {
		x[t] = x[t-1] + rng.NormFloat64()
	}
	y := make([]float64, n)
	for t := 2; t < n; t++ {
		y[t] = y[t-1] + 0.9*(x[t-1]-x[t-2]) + rng.NormFloat64()*0.3
	}
	_, res, _, err := Direction(x, y, Options{MaxLag: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DifferencedX || !res.DifferencedY {
		t.Errorf("expected both series differenced, got x=%v y=%v", res.DifferencedX, res.DifferencedY)
	}
	if !res.Significant {
		t.Errorf("causality on differenced series missed: p=%g", res.PValue)
	}
}

func TestSpuriousRegressionFiltered(t *testing.T) {
	// Two independent random walks: with the ADF pre-check the test
	// differences both and should mostly stay quiet.
	falsePositives := 0
	const trials = 30
	for seed := int64(50); seed < 50+trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 400
		x := make([]float64, n)
		y := make([]float64, n)
		for t := 1; t < n; t++ {
			x[t] = x[t-1] + rng.NormFloat64()
			y[t] = y[t-1] + rng.NormFloat64()
		}
		_, res, _, err := Direction(x, y, Options{MaxLag: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Significant {
			falsePositives++
		}
	}
	if falsePositives > 5 {
		t.Errorf("%d/%d spurious causal findings on independent walks", falsePositives, trials)
	}
}

func TestConstantSeriesIsNeverCausal(t *testing.T) {
	x := make([]float64, 100)
	rng := rand.New(rand.NewSource(7))
	y := make([]float64, 100)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	for _, pair := range [][2][]float64{{x, y}, {y, x}} {
		dir, xy, yx, err := Direction(pair[0], pair[1], Options{})
		if err != nil {
			t.Fatal(err)
		}
		if dir != None || xy.Significant || yx.Significant {
			t.Errorf("a constant series in a pair gives %v (x->y %v, y->x %v), want none", dir, xy.Significant, yx.Significant)
		}
	}
}

func TestBidirectionalCommonDriver(t *testing.T) {
	// Both x and y driven by a shared hidden z with weight on the older
	// lag (non-invertible moving averages): neither side's own history
	// recovers z, so each side's history genuinely helps predict the
	// other — the bidirectional signature of a confounder that Sieve
	// filters (§3.3).
	rng := rand.New(rand.NewSource(8))
	n := 2000
	z := make([]float64, n)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for t := 2; t < n; t++ {
		x[t] = 0.3*z[t-1] + 0.9*z[t-2] + rng.NormFloat64()*0.1
		y[t] = 0.4*z[t-1] + 0.85*z[t-2] + rng.NormFloat64()*0.1
	}
	dir, _, _, err := Direction(x, y, Options{MaxLag: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dir != Bidirectional {
		t.Errorf("direction = %v, want bidirectional for common driver", dir)
	}
}

// mirror is the class Direction(y, x) must return when
// Direction(x, y) returned c.
func mirror(c Causality) Causality {
	switch c {
	case XCausesY:
		return YCausesX
	case YCausesX:
		return XCausesY
	}
	return c
}

// TestDirectionSwapMirrors: swapping the arguments mirrors the class and
// swaps the two directed results — F and p-value equal by bits, lags
// equal — because both calls test the same stationary pair. A result's
// DifferencedX and DifferencedY name its own cause and effect, so within
// one call the two directions carry the flags swapped, and a result keeps
// its flags when the arguments swap. The pairs cover a stationary and a
// differenced side, a significant relation, a constant series and a pair
// too short to test.
func TestDirectionSwapMirrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n = 300
	noise := make([]float64, n)
	ar := make([]float64, n)
	walk := make([]float64, n)
	for i := range noise {
		noise[i] = rng.NormFloat64()
		if i > 0 {
			ar[i] = 0.5*ar[i-1] + rng.NormFloat64()
			walk[i] = walk[i-1] + rng.NormFloat64()
		}
	}
	driver, lagged := causalPair(rng, n, 1, 0.9, 0.3)
	constant := make([]float64, n)
	short := []float64{1, 3, 2, 5, 4, 6}

	cases := []struct {
		name    string
		x, y    []float64
		wantDir Causality // 0: not asserted
		wantErr bool
	}{
		{name: "white noise, AR(0.5)", x: noise, y: ar},
		{name: "random walk, white noise", x: walk, y: noise},
		{name: "AR(0.5), random walk", x: ar, y: walk},
		{name: "lagged copy", x: driver, y: lagged, wantDir: XCausesY},
		{name: "constant, white noise", x: constant, y: noise, wantDir: None},
		{name: "too short", x: short, y: []float64{2, 1, 4, 3, 6, 5}, wantErr: true},
	}
	differenced := false
	for _, tc := range cases {
		for _, maxLag := range []int{1, 2} {
			what := fmt.Sprintf("%s, MaxLag %d", tc.name, maxLag)
			opts := Options{MaxLag: maxLag}
			dir, xy, yx, err := Direction(tc.x, tc.y, opts)
			swDir, swXY, swYX, swErr := Direction(tc.y, tc.x, opts)
			if tc.wantErr {
				if err == nil || swErr == nil {
					t.Errorf("%s: errors %v and %v, want both calls to fail", what, err, swErr)
				}
				continue
			}
			if err != nil || swErr != nil {
				t.Fatalf("%s: errors %v and %v", what, err, swErr)
			}
			if tc.wantDir != 0 && dir != tc.wantDir {
				t.Errorf("%s: direction %v, want %v", what, dir, tc.wantDir)
			}
			if swDir != mirror(dir) {
				t.Errorf("%s: swapped direction %v, want %v (the mirror of %v)", what, swDir, mirror(dir), dir)
			}
			if xy.DifferencedX != yx.DifferencedY || xy.DifferencedY != yx.DifferencedX {
				t.Errorf("%s: x->y flags %v/%v, y->x flags %v/%v, want them swapped", what,
					xy.DifferencedX, xy.DifferencedY, yx.DifferencedX, yx.DifferencedY)
			}
			for _, r := range [][2]*TestResult{{xy, swYX}, {yx, swXY}} {
				want, got := r[0], r[1]
				if math.Float64bits(got.F) != math.Float64bits(want.F) ||
					math.Float64bits(got.PValue) != math.Float64bits(want.PValue) ||
					got.Lag != want.Lag || got.Significant != want.Significant ||
					got.DifferencedX != want.DifferencedX || got.DifferencedY != want.DifferencedY {
					t.Errorf("%s: swapped call's result %+v, want %+v", what, *got, *want)
				}
			}
			differenced = differenced || xy.DifferencedX || xy.DifferencedY
		}
	}
	if !differenced {
		t.Error("no pair had a series differenced; the random walk should be")
	}
}

// TestDirectionAffineInvariant: an F-test compares residual sums of
// squares of regressions with an intercept, so mapping x -> a·x + b and
// y -> c·y + d (a, c non-zero) changes no statistic beyond rounding, and
// neither the stationarity pre-check nor the chosen lag nor the class.
// Cells are seeded AR(φ) pairs, φ ∈ {0, 0.5, 0.9, 1}, every third with y
// driven by x's previous value.
func TestDirectionAffineInvariant(t *testing.T) {
	const (
		n     = 120
		pairs = 30 // per φ
	)
	rng := rand.New(rand.NewSource(25))
	opts := Options{MaxLag: 2}
	causal := 0
	for _, phi := range []float64{0, 0.5, 0.9, 1} {
		for i := 0; i < pairs; i++ {
			x, y := make([]float64, n), make([]float64, n)
			for t := 1; t < n; t++ {
				x[t] = phi*x[t-1] + rng.NormFloat64()
				y[t] = phi*y[t-1] + rng.NormFloat64()
				if i%3 == 0 {
					y[t] += 0.8 * x[t-1]
				}
			}
			dir, xy, yx, err := Direction(x, y, opts)
			if err != nil {
				t.Fatalf("φ %v, pair %d: %v", phi, i, err)
			}
			if dir == XCausesY || dir == Bidirectional {
				causal++
			}
			for _, a := range []float64{3.7, 0.013} {
				what := fmt.Sprintf("φ %v, pair %d, x -> %v·x - 12.5, y -> 2.5·y - 100", phi, i, a)
				ax, ay := make([]float64, n), make([]float64, n)
				for t := range x {
					ax[t] = a*x[t] - 12.5
					ay[t] = 2.5*y[t] - 100
				}
				adir, axy, ayx, err := Direction(ax, ay, opts)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if adir != dir {
					t.Errorf("%s: direction %v, want %v", what, adir, dir)
				}
				for _, r := range [][2]*TestResult{{xy, axy}, {yx, ayx}} {
					want, got := r[0], r[1]
					if math.Abs(got.F-want.F) > 1e-8*math.Abs(want.F) || math.Abs(got.PValue-want.PValue) > 1e-9 ||
						got.Lag != want.Lag || got.DifferencedX != want.DifferencedX || got.DifferencedY != want.DifferencedY {
						t.Errorf("%s: result %+v, want %+v", what, *got, *want)
					}
				}
			}
		}
	}
	if causal == 0 {
		t.Error("no pair was classified causal; the driven third should be")
	}
}

func TestErrorsAndEdgeCases(t *testing.T) {
	if _, _, _, err := Direction([]float64{1, 2}, []float64{1}, Options{}); err == nil {
		t.Error("expected length-mismatch error")
	}
	short := []float64{1, 2, 3, 1, 2, 3}
	if _, _, _, err := Direction(short, short, Options{MaxLag: 2}); !errors.Is(err, ErrSeriesTooShort) {
		t.Errorf("short series: err = %v, want ErrSeriesTooShort", err)
	}
}

func TestPValueBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + rng.Intn(200)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		_, xy, yx, err := Direction(x, y, Options{MaxLag: 1 + rng.Intn(3)})
		if err != nil {
			return false
		}
		return xy.PValue >= 0 && xy.PValue <= 1 && xy.F >= 0 &&
			yx.PValue >= 0 && yx.PValue <= 1 && yx.F >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCausalityString(t *testing.T) {
	tests := []struct {
		c    Causality
		want string
	}{
		{None, "none"},
		{XCausesY, "x->y"},
		{YCausesX, "y->x"},
		{Bidirectional, "bidirectional"},
		{Causality(99), "Causality(99)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.c), got, tt.want)
		}
	}
}

func TestLagSamples(t *testing.T) {
	tests := []struct {
		delay, step int64
		want        int
	}{
		{500, 500, 1},
		{1000, 500, 2},
		{750, 500, 2},
		{0, 500, 1},
		{500, 0, 1},
		{100, 500, 1},
	}
	for _, tt := range tests {
		if got := LagSamples(tt.delay, tt.step); got != tt.want {
			t.Errorf("LagSamples(%d,%d) = %d, want %d", tt.delay, tt.step, got, tt.want)
		}
	}
}
