package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sieve-microservices/sieve/internal/mathx"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

// designWithIntercept builds a design matrix whose first column is the
// constant 1 followed by the given equal-length predictor columns; with
// no columns and n rows it is the intercept-only model.
func designWithIntercept(n int, cols ...[]float64) *mathx.Matrix {
	m := new(mathx.Matrix).Resize(n, len(cols)+1)
	for i := 0; i < n; i++ {
		m.Set(i, 0, 1)
		for j, c := range cols {
			m.Set(i, j+1, c[i])
		}
	}
	return m
}

func TestFitOLSKnownSmallExample(t *testing.T) {
	// y = 1 + 2x fitted through exact points.
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7}
	coef, rss, err := FitOLSWith(y, designWithIntercept(len(x), x), new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(coef[0], 1, 1e-9) || !almostEqual(coef[1], 2, 1e-9) {
		t.Fatalf("coef = %v, want [1 2]", coef)
	}
	if !almostEqual(rss, 0, 1e-18) {
		t.Errorf("RSS = %g, want 0", rss)
	}
}

func TestFitOLSRecoversPlantedWithNoise(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 400
		b0, b1, b2 := rng.NormFloat64()*2, rng.NormFloat64()*2, rng.NormFloat64()*2
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x1[i] = rng.NormFloat64()
			x2[i] = rng.NormFloat64()
			y[i] = b0 + b1*x1[i] + b2*x2[i] + rng.NormFloat64()*0.1
		}
		coef, _, err := FitOLSWith(y, designWithIntercept(n, x1, x2), new(Scratch))
		if err != nil {
			return false
		}
		return almostEqual(coef[0], b0, 0.05) &&
			almostEqual(coef[1], b1, 0.05) &&
			almostEqual(coef[2], b2, 0.05)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFitOLSStdErrKnown(t *testing.T) {
	// For y ~ 1 with intercept only, the intercept's standard error is
	// s/sqrt(n) with s^2 the sample variance (n-1 denominator).
	y := []float64{1, 2, 3, 4, 5, 6}
	design := designWithIntercept(len(y))
	s := new(Scratch)
	coef, rss, err := FitOLSWith(y, design, s)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(coef[0], 3.5, 1e-12) {
		t.Fatalf("intercept = %g, want 3.5", coef[0])
	}
	s2 := rss / float64(len(y)-1)
	se, err := standardError(design, 0, s2, s)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Sqrt(s2 / float64(len(y))); !almostEqual(se, want, 1e-9) {
		t.Errorf("standard error = %g, want %g", se, want)
	}
}

func TestFitOLSErrors(t *testing.T) {
	if _, _, err := FitOLSWith([]float64{1, 2}, new(mathx.Matrix).Resize(3, 1), new(Scratch)); err == nil {
		t.Error("expected row-count mismatch error")
	}
	if _, _, err := FitOLSWith([]float64{1, 2}, new(mathx.Matrix).Resize(2, 0), new(Scratch)); err == nil {
		t.Error("expected empty-design error")
	}
	if _, _, err := FitOLSWith([]float64{1, 2}, new(mathx.Matrix).Resize(2, 2), new(Scratch)); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("n<=p: err = %v, want ErrTooFewObservations", err)
	}
	// Collinear design must surface the singularity.
	design := designWithIntercept(4, []float64{1, 1, 1, 1})
	if _, _, err := FitOLSWith([]float64{1, 2, 3, 4}, design, new(Scratch)); err == nil {
		t.Error("expected singularity error for collinear design")
	}
}

func TestOLSTStat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 5*x[i] + rng.NormFloat64()*0.5
	}
	design := designWithIntercept(n, x)
	s := new(Scratch)
	coef, rss, err := FitOLSWith(y, design, s)
	if err != nil {
		t.Fatal(err)
	}
	se, err := standardError(design, 1, rss/float64(n-2), s)
	if err != nil {
		t.Fatal(err)
	}
	if ts := coef[1] / se; ts < 20 {
		t.Errorf("t-stat for strong predictor = %g, want large", ts)
	}
}
