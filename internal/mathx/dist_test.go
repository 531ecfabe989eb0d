package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFCDFKnownValues(t *testing.T) {
	// Critical values F_{0.95}(d1,d2) from standard tables.
	tests := []struct {
		f, d1, d2, want float64
	}{
		{3.325835, 5, 10, 0.95},
		{4.964603, 1, 10, 0.95},
		{4.102821, 2, 10, 0.95},
		{0, 3, 7, 0},
	}
	for _, tt := range tests {
		if got := 1 - FSurvival(tt.f, tt.d1, tt.d2); !almostEqual(got, tt.want, 1e-5) {
			t.Errorf("1 - FSurvival(%g;%g,%g) = %.6f, want %.6f", tt.f, tt.d1, tt.d2, got, tt.want)
		}
	}
}

func TestFSurvivalComplementsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d1 := 1 + float64(rng.Intn(30))
		d2 := 1 + float64(rng.Intn(60))
		x := 0.01 + rng.Float64()*10
		// X ~ F(d1,d2) means 1/X ~ F(d2,d1), so P(X <= x) is the
		// reciprocal's survival at 1/x: the two must sum to one.
		c := FSurvival(1/x, d2, d1)
		s := FSurvival(x, d1, d2)
		return almostEqual(c+s, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFSurvivalTail(t *testing.T) {
	// A very large F statistic has a tiny but positive p-value; the direct
	// survival form must not round it to a negative or exactly-zero-by-
	// cancellation value.
	p := FSurvival(80, 3, 100)
	if p <= 0 || p > 1e-10 {
		t.Errorf("FSurvival(80;3,100) = %g, want tiny positive", p)
	}
	if got := FSurvival(0, 3, 10); got != 1 {
		t.Errorf("FSurvival(0) = %g, want 1", got)
	}
	if got := FSurvival(1, 0, 10); !math.IsNaN(got) {
		t.Errorf("d1=0: got %g, want NaN", got)
	}
}

func TestCDFsAreMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d1 := 1 + float64(rng.Intn(40))
		d2 := 1 + float64(rng.Intn(40))
		x1 := rng.Float64() * 9
		x2 := rng.Float64() * 9
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		// The F CDF is 1 - FSurvival: the survival must not increase.
		return FSurvival(x1, d1, d2) >= FSurvival(x2, d1, d2)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
