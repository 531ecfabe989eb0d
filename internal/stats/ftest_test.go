package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestFTestNestedKnownArithmetic(t *testing.T) {
	// Hand-computed: rssR=100, rssU=80, pR=2, pU=4, n=54 ->
	// F = ((100-80)/2)/(80/50) = 10/1.6 = 6.25, df=(2,50).
	res, err := FTestNested(100, 80, 2, 4, 54)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.F, 6.25, 1e-12) {
		t.Errorf("F = %g, want 6.25", res.F)
	}
	if res.DF1 != 2 || res.DF2 != 50 {
		t.Errorf("df = (%d,%d), want (2,50)", res.DF1, res.DF2)
	}
	// F_{0.95}(2,50) ~ 3.18, so 6.25 must be significant at 5%.
	if res.PValue >= 0.05 || res.PValue <= 0 {
		t.Errorf("p = %g, want small positive", res.PValue)
	}
}

func TestFTestDetectsTruePredictor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 300
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 2*x[i] + rng.NormFloat64()
	}
	_, rssR, err := FitOLSWith(y, designWithIntercept(n), new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	_, rssU, err := FitOLSWith(y, designWithIntercept(n, x), new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	res, err := FTestNested(rssR, rssU, 1, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("true predictor p = %g, want tiny", res.PValue)
	}
}

func TestFTestRejectsIrrelevantPredictor(t *testing.T) {
	// With an irrelevant regressor, p-values should rarely be tiny.
	// Use a fixed seed; p must not be below 0.001 for this draw.
	rng := rand.New(rand.NewSource(17))
	n := 300
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	_, rssR, _ := FitOLSWith(y, designWithIntercept(n), new(Scratch))
	_, rssU, _ := FitOLSWith(y, designWithIntercept(n, x), new(Scratch))
	res, err := FTestNested(rssR, rssU, 1, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.001 {
		t.Errorf("irrelevant predictor p = %g, suspiciously small", res.PValue)
	}
}

func TestFTestEdgeCases(t *testing.T) {
	if _, err := FTestNested(10, 8, 3, 3, 100); err == nil {
		t.Error("expected error when pU <= pR")
	}
	if _, err := FTestNested(10, 8, 1, 2, 2); err == nil {
		t.Error("expected error when n <= pU")
	}
	if _, err := FTestNested(-1, 8, 1, 2, 100); err == nil {
		t.Error("expected error for negative RSS")
	}
	// Perfect unrestricted fit with imperfect restricted fit: F = +inf, p=0.
	res, err := FTestNested(5, 0, 1, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.F, 1) || res.PValue != 0 {
		t.Errorf("perfect fit: F=%g p=%g, want +inf and 0", res.F, res.PValue)
	}
	// Both perfect: no evidence for the extra parameters.
	res, err = FTestNested(0, 0, 1, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.F != 0 || res.PValue != 1 {
		t.Errorf("both perfect: F=%g p=%g, want 0 and 1", res.F, res.PValue)
	}
	// Numerical jitter: rssU slightly above rssR clamps to F=0.
	res, err = FTestNested(10, 10.000001, 1, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.F != 0 {
		t.Errorf("jitter: F=%g, want 0", res.F)
	}
}
