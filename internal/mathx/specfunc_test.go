package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegIncBetaIdentities(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.77, 0.99} {
		if got := RegIncBeta(1, 1, x); !almostEqual(got, x, 1e-12) {
			t.Errorf("I_%g(1,1) = %g, want %g", x, got, x)
		}
	}
	// I_0.5(a,a) = 0.5 by symmetry.
	for _, a := range []float64{0.5, 1, 2, 7.5, 30} {
		if got := RegIncBeta(a, a, 0.5); !almostEqual(got, 0.5, 1e-10) {
			t.Errorf("I_0.5(%g,%g) = %g, want 0.5", a, a, got)
		}
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// Reference values from scipy.special.betainc.
	tests := []struct {
		a, b, x, want float64
	}{
		{2, 3, 0.4, 0.5248},
		{2, 2, 0.25, 0.15625},
		{5, 5, 0.3, 0.09880866},
		{0.5, 0.5, 0.5, 0.5},
		// I_0.9(10,2) = 11*0.9^10*0.1 + 0.9^11 by the binomial identity.
		{10, 2, 0.9, 0.69735688},
	}
	for _, tt := range tests {
		if got := RegIncBeta(tt.a, tt.b, tt.x); !almostEqual(got, tt.want, 1e-6) {
			t.Errorf("I_%g(%g,%g) = %.8f, want %.8f", tt.x, tt.a, tt.b, got, tt.want)
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if got := RegIncBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %g, want 0", got)
	}
	if got := RegIncBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %g, want 1", got)
	}
	if got := RegIncBeta(-1, 3, 0.5); !math.IsNaN(got) {
		t.Errorf("invalid a: got %g, want NaN", got)
	}
	if got := RegIncBeta(1, 3, math.NaN()); !math.IsNaN(got) {
		t.Errorf("NaN x: got %g, want NaN", got)
	}
}

func TestRegIncBetaSymmetryProperty(t *testing.T) {
	// I_x(a,b) = 1 - I_{1-x}(b,a)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := 0.5 + rng.Float64()*20
		b := 0.5 + rng.Float64()*20
		x := rng.Float64()
		lhs := RegIncBeta(a, b, x)
		rhs := 1 - RegIncBeta(b, a, 1-x)
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRegIncBetaMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := 0.5 + rng.Float64()*10
		b := 0.5 + rng.Float64()*10
		x1 := rng.Float64()
		x2 := rng.Float64()
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return RegIncBeta(a, b, x1) <= RegIncBeta(a, b, x2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
