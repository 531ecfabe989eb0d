package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestResampleAveragesBuckets(t *testing.T) {
	var pts []Point
	// Two points in bucket 0, one in bucket 1.
	pts = append(pts, Point{0, 2})
	pts = append(pts, Point{100, 4})
	pts = append(pts, Point{500, 10})
	r, err := Resample("cpu", pts, 0, 1000, 500)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if !almostEqual(r.Values[0], 3, 1e-12) {
		t.Errorf("bucket 0 = %g, want 3 (mean of 2,4)", r.Values[0])
	}
	if !almostEqual(r.Values[1], 10, 1e-12) {
		t.Errorf("bucket 1 = %g, want 10", r.Values[1])
	}
	if r.Start != 0 || r.StepMS != 500 {
		t.Errorf("grid = start %d step %d, want 0 and 500", r.Start, r.StepMS)
	}
}

func TestResampleFillsGapsSmoothly(t *testing.T) {
	// Samples of a parabola with a missing middle region: the spline must
	// reconstruct interior points well (cubic interpolates quadratics
	// nearly exactly away from boundary effects).
	var pts []Point
	f := func(x float64) float64 { return 0.5*x*x - 3*x + 7 }
	for i := 0; i < 20; i++ {
		if i >= 8 && i <= 11 {
			continue // gap
		}
		pts = append(pts, Point{int64(i * 500), f(float64(i))})
	}
	r, err := Resample("m", pts, 0, 20*500, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i <= 11; i++ {
		if !almostEqual(r.Values[i], f(float64(i)), 0.35) {
			t.Errorf("gap slot %d = %g, want ~%g", i, r.Values[i], f(float64(i)))
		}
	}
}

func TestResampleClampsEdgeGaps(t *testing.T) {
	var pts []Point
	pts = append(pts, Point{2 * 500, 5})
	pts = append(pts, Point{3 * 500, 6})
	pts = append(pts, Point{4 * 500, 7})
	r, err := Resample("m", pts, 0, 7*500, 500)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values[0] != 5 || r.Values[1] != 5 {
		t.Errorf("leading gap = %g,%g, want clamped to 5", r.Values[0], r.Values[1])
	}
	if r.Values[5] != 7 || r.Values[6] != 7 {
		t.Errorf("trailing gap = %g,%g, want clamped to 7", r.Values[5], r.Values[6])
	}
}

func TestResampleTwoKnotsLinear(t *testing.T) {
	var pts []Point
	pts = append(pts, Point{0, 0})
	pts = append(pts, Point{4 * 500, 8})
	r, err := Resample("m", pts, 0, 5*500, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !almostEqual(r.Values[i], float64(i)*2, 1e-9) {
			t.Errorf("slot %d = %g, want %g", i, r.Values[i], float64(i)*2)
		}
	}
}

func TestResampleSingleKnotConstant(t *testing.T) {
	var pts []Point
	pts = append(pts, Point{1000, 42})
	r, err := Resample("m", pts, 0, 2000, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range r.Values {
		if v != 42 {
			t.Errorf("slot %d = %g, want 42", i, v)
		}
	}
}

func TestResampleErrors(t *testing.T) {
	var pts []Point
	if _, err := Resample("m", pts, 0, 1000, 500); err == nil {
		t.Error("expected error for empty series")
	}
	pts = append(pts, Point{0, 1})
	if _, err := Resample("m", pts, 0, 1000, 0); err == nil {
		t.Error("expected error for zero step")
	}
	if _, err := Resample("m", pts, 1000, 1000, 500); err == nil {
		t.Error("expected error for empty grid")
	}
	if _, err := Resample("m", pts, 5000, 6000, 500); err == nil {
		t.Error("expected error when all points fall outside the grid")
	}
}

func TestResampleIgnoresNaNPoints(t *testing.T) {
	var pts []Point
	pts = append(pts, Point{0, 1})
	pts = append(pts, Point{100, math.NaN()})
	pts = append(pts, Point{500, 2})
	r, err := Resample("m", pts, 0, 1000, 500)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values[0] != 1 {
		t.Errorf("bucket 0 = %g, want 1 (NaN ignored)", r.Values[0])
	}
}

func TestResampleRoundTripProperty(t *testing.T) {
	// With one point per bucket, resampling is the identity.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		var pts []Point
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			v := rng.NormFloat64() * 10
			want[i] = v
			pts = append(pts, Point{int64(i)*500 + int64(rng.Intn(500)), v})
		}
		r, err := Resample("m", pts, 0, int64(n)*500, 500)
		if err != nil {
			return false
		}
		for i := range want {
			if !almostEqual(r.Values[i], want[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
