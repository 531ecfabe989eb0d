package granger

import (
	"errors"
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
	res, err := TestWith(x, y, Options{MaxLag: 1}, new(Scratch))
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
		res, err := TestWith(x, y, Options{MaxLag: 1}, new(Scratch))
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

func TestHigherLagDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := causalPair(rng, 600, 3, 0.9, 0.3)
	res, err := TestWith(x, y, Options{MaxLag: 4}, new(Scratch))
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
	res, err := TestWith(x, y, Options{MaxLag: 2}, new(Scratch))
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
		res, err := TestWith(x, y, Options{MaxLag: 1}, new(Scratch))
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
	res, err := TestWith(x, y, Options{}, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant {
		t.Error("constant X flagged as causal")
	}
	res, err = TestWith(y, x, Options{}, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant {
		t.Error("constant Y flagged as caused")
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

func TestErrorsAndEdgeCases(t *testing.T) {
	if _, err := TestWith([]float64{1, 2}, []float64{1}, Options{}, new(Scratch)); err == nil {
		t.Error("expected length-mismatch error")
	}
	short := []float64{1, 2, 3, 1, 2, 3}
	if _, err := TestWith(short, short, Options{MaxLag: 2}, new(Scratch)); !errors.Is(err, ErrSeriesTooShort) {
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
		res, err := TestWith(x, y, Options{MaxLag: 1 + rng.Intn(3)}, new(Scratch))
		if err != nil {
			return false
		}
		return res.PValue >= 0 && res.PValue <= 1 && res.F >= 0
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
