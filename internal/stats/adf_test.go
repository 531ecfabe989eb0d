package stats

import (
	"math"
	"math/rand"
	"testing"
)

func randomWalk(rng *rand.Rand, n int) []float64 {
	y := make([]float64, n)
	for i := 1; i < n; i++ {
		y[i] = y[i-1] + rng.NormFloat64()
	}
	return y
}

func ar1(rng *rand.Rand, n int, phi float64) []float64 {
	y := make([]float64, n)
	for i := 1; i < n; i++ {
		y[i] = phi*y[i-1] + rng.NormFloat64()
	}
	return y
}

func TestADFRejectsStationaryAR1(t *testing.T) {
	// Strongly mean-reverting series: unit root must be rejected.
	hits := 0
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		y := ar1(rng, 500, 0.3)
		res, err := ADFWith(y, 2, new(Scratch))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stationary {
			hits++
		}
	}
	if hits < 9 {
		t.Errorf("ADF detected stationarity in %d/10 AR(0.3) draws, want >= 9", hits)
	}
}

func TestADFKeepsUnitRoot(t *testing.T) {
	// Random walks: the unit-root null should survive most of the time.
	keeps := 0
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		y := randomWalk(rng, 500)
		res, err := ADFWith(y, 2, new(Scratch))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stationary {
			keeps++
		}
	}
	if keeps < 8 {
		t.Errorf("ADF kept the unit root in %d/10 random walks, want >= 8 (5%% level)", keeps)
	}
}

func TestADFMonotoneCounter(t *testing.T) {
	// A deterministic increasing counter (CPU-seconds style) is the
	// paper's canonical non-stationary metric.
	y := make([]float64, 200)
	for i := range y {
		y[i] = float64(i) * 3
	}
	// Add slight noise to avoid an exactly singular design.
	rng := rand.New(rand.NewSource(5))
	for i := range y {
		y[i] += rng.NormFloat64() * 0.01
	}
	res, err := ADFWith(y, 2, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stationary {
		t.Errorf("monotone counter flagged stationary (stat=%g)", res.Stat)
	}
}

func TestADFConstantSeries(t *testing.T) {
	y := make([]float64, 50)
	for i := range y {
		y[i] = 7
	}
	res, err := ADFWith(y, 2, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stationary {
		t.Error("constant series must be reported stationary")
	}
	if !math.IsInf(res.Stat, -1) {
		t.Errorf("constant series stat = %g, want -inf", res.Stat)
	}
}

func TestADFTooShort(t *testing.T) {
	if _, err := ADFWith([]float64{1, 2, 3}, 2, new(Scratch)); err == nil {
		t.Error("expected error for a too-short series")
	}
}

func TestEnsureStationary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	walk := randomWalk(rng, 400)
	out, differenced := EnsureStationaryWith(walk, 2, new(Scratch))
	if !differenced {
		t.Fatal("random walk should be differenced")
	}
	if len(out) != len(walk)-1 {
		t.Fatalf("differenced length = %d, want %d", len(out), len(walk)-1)
	}

	stationary := ar1(rng, 400, 0.2)
	out, differenced = EnsureStationaryWith(stationary, 2, new(Scratch))
	if differenced {
		t.Error("stationary AR(1) should pass through unchanged")
	}
	if len(out) != len(stationary) {
		t.Error("pass-through must preserve length")
	}

	short := []float64{1, 2, 3}
	out, differenced = EnsureStationaryWith(short, 2, new(Scratch))
	if differenced || len(out) != 3 {
		t.Error("too-short series must be returned unchanged")
	}
}
