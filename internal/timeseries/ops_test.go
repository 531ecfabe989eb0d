package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVarianceKnown(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(v); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := Variance(v); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := StdDev(v); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Error("empty slice must yield NaN")
	}
}

func TestZNormalizeProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()*7 + 3
		}
		if IsConstant(v) {
			return true // separately tested
		}
		z := ZNormalize(v)
		return almostEqual(Mean(z), 0, 1e-9) && almostEqual(Variance(z), 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZNormalizeConstantSeries(t *testing.T) {
	z := ZNormalize([]float64{5, 5, 5})
	for _, x := range z {
		if x != 0 {
			t.Fatalf("constant series must normalize to zeros, got %v", z)
		}
	}
	if got := ZNormalize(nil); len(got) != 0 {
		t.Errorf("empty input: got %v", got)
	}
}

func TestDiff(t *testing.T) {
	got := Diff([]float64{1, 4, 9, 16})
	want := []float64{3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Diff[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if len(Diff([]float64{1})) != 0 {
		t.Error("Diff of single element must be empty")
	}
}

func TestIsConstantAndHasNaN(t *testing.T) {
	if !IsConstant([]float64{3, 3, 3}) {
		t.Error("IsConstant false negative")
	}
	if IsConstant([]float64{3, 3.0001}) {
		t.Error("IsConstant false positive")
	}
	if !IsConstant(nil) {
		t.Error("empty slice is vacuously constant")
	}
	if HasNaN([]float64{1, 2}) {
		t.Error("HasNaN false positive")
	}
	if !HasNaN([]float64{1, math.NaN()}) {
		t.Error("HasNaN false negative")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %g,%g, want -1,7", min, max)
	}
	min, max = MinMax(nil)
	if !math.IsNaN(min) || !math.IsNaN(max) {
		t.Error("empty MinMax must be NaN,NaN")
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p, want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {90, 46},
	}
	for _, tt := range tests {
		if got := Percentile(v, tt.p); !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("Percentile(%g) = %g, want %g", tt.p, got, tt.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty Percentile must be NaN")
	}
	// Input must not be mutated.
	orig := append([]float64(nil), v...)
	Percentile(v, 50)
	for i := range v {
		if v[i] != orig[i] {
			t.Fatal("Percentile mutated its input")
		}
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 100
		}
		p1 := rng.Float64() * 100
		p2 := rng.Float64() * 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(v, p1) <= Percentile(v, p2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLowVarianceThresholdValue(t *testing.T) {
	// Guard the paper constant (§3.2): var <= 0.002.
	if LowVarianceThreshold != 0.002 {
		t.Fatalf("LowVarianceThreshold = %g, want 0.002", LowVarianceThreshold)
	}
}
