package kshape

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sieve-microservices/sieve/internal/timeseries"
)

func sine(n int, period float64, phase float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(2*math.Pi*float64(i)/period + phase)
	}
	return out
}

func TestSBDIdenticalSeries(t *testing.T) {
	x := sine(64, 16, 0)
	d, shift := SBD(x, x)
	if d > 1e-9 {
		t.Errorf("SBD(x,x) = %g, want ~0", d)
	}
	if shift != 0 {
		t.Errorf("shift = %d, want 0", shift)
	}
}

func TestSBDDetectsShift(t *testing.T) {
	// y is x delayed by 5 samples; SBD must report the alignment shift
	// that maps y back onto x and a near-zero distance.
	n := 128
	x := make([]float64, n)
	y := make([]float64, n)
	rng := rand.New(rand.NewSource(1))
	base := make([]float64, n+10)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	copy(x, base[5:5+n])
	copy(y, base[:n]) // y[t] = x[t-(-5)] -> y leads... y[t] = base[t], x[t] = base[t+5], so y[t] = x[t-5]
	d, shift := SBD(x, y)
	if d > 0.15 {
		t.Errorf("SBD of shifted copies = %g, want small", d)
	}
	if shift != -5 {
		t.Errorf("shift = %d, want -5", shift)
	}
	// Align must undo the delay.
	al := alignInto(make([]float64, len(y)), y, shift)
	var agree float64
	for i := 0; i < n-5; i++ {
		if math.Abs(al[i]-x[i]) < 1e-12 {
			agree++
		}
	}
	if agree < float64(n-5) {
		t.Errorf("Align recovered %g/%d samples", agree, n-5)
	}
}

func TestSBDZeroSeriesConventions(t *testing.T) {
	zero := make([]float64, 16)
	x := sine(16, 8, 0)
	if d, _ := SBD(zero, zero); d != 0 {
		t.Errorf("SBD(0,0) = %g, want 0", d)
	}
	if d, _ := SBD(zero, x); d != 1 {
		t.Errorf("SBD(0,x) = %g, want 1", d)
	}
	if d, _ := SBD(x, zero); d != 1 {
		t.Errorf("SBD(x,0) = %g, want 1", d)
	}
}

func TestSBDRangeAndSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		dxy, _ := SBD(x, y)
		dyx, _ := SBD(y, x)
		if dxy < -1e-12 || dxy > 2+1e-12 {
			return false
		}
		return math.Abs(dxy-dyx) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSBDScaleInvariance(t *testing.T) {
	// SBD divides by the norms, so positive scaling must not matter.
	x := sine(64, 16, 0)
	y := make([]float64, len(x))
	for i := range y {
		y[i] = 37 * x[i]
	}
	d, _ := SBD(x, y)
	if d > 1e-9 {
		t.Errorf("SBD under scaling = %g, want ~0", d)
	}
}

func TestSBDShiftInvarianceProperty(t *testing.T) {
	// A circularly-unrelated, zero-padded shift of x stays close to x.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32 + rng.Intn(64)
		shift := 1 + rng.Intn(5)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := alignInto(make([]float64, len(x)), x, shift) // y[t] = x[t-shift], i.e. y lags x
		d, got := SBD(x, y)
		// Some information is lost at the padded boundary; distance must
		// still be small and the recovered shift exact (negative: y lags).
		return d < 0.35 && got == -shift
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAlignZeroPads(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	got := alignInto(make([]float64, len(y)), y, 2)
	want := []float64{0, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Align(+2) = %v, want %v", got, want)
		}
	}
	got = alignInto(make([]float64, len(y)), y, -1)
	want = []float64{2, 3, 4, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Align(-1) = %v, want %v", got, want)
		}
	}
}

func TestPairwiseSBDMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	series := make([][]float64, 6)
	for i := range series {
		series[i] = make([]float64, 40)
		for j := range series[i] {
			series[i][j] = rng.NormFloat64()
		}
	}
	d, err := PairwiseSBD(series)
	if err != nil {
		t.Fatal(err)
	}
	for i := range series {
		if d[i][i] != 0 {
			t.Errorf("diagonal [%d][%d] = %g, want 0", i, i, d[i][i])
		}
		for j := range series {
			direct, _ := SBD(series[i], series[j])
			if math.Abs(d[i][j]-direct) > 1e-9 {
				t.Errorf("pairwise[%d][%d] = %g, direct = %g", i, j, d[i][j], direct)
			}
			if d[i][j] != d[j][i] {
				t.Errorf("matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestPairwiseSBDErrors(t *testing.T) {
	if _, err := PairwiseSBD([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("expected error for ragged series")
	}
	if _, err := PairwiseSBD([][]float64{{}}); err == nil {
		t.Error("expected error for empty series")
	}
	if d, err := PairwiseSBD(nil); err != nil || d != nil {
		t.Error("nil input should be a no-op")
	}
}

func TestNCCPeakIsCorrelationCoefficient(t *testing.T) {
	// For z-normalized series of length n, NCC at zero shift equals the
	// Pearson correlation (up to the 1/n factor folded into the norms).
	x := timeseries.ZNormalize(sine(64, 16, 0))
	ncc := NCC(x, x)
	peak := ncc[len(x)-1] // zero-shift entry
	if math.Abs(peak-1) > 1e-9 {
		t.Errorf("NCC zero-shift of identical series = %g, want 1", peak)
	}
}
