package mathx

import (
	"math"
	"math/cmplx"
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

func TestNextPow2(t *testing.T) {
	tests := []struct {
		in, want int
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1023, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, tt := range tests {
		if got := NextPow2(tt.in); got != tt.want {
			t.Errorf("NextPow2(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	tests := []struct {
		in   int
		want bool
	}{
		{0, false}, {1, true}, {2, true}, {3, false}, {4, true}, {6, false}, {-4, false}, {1 << 20, true},
	}
	for _, tt := range tests {
		if got := IsPow2(tt.in); got != tt.want {
			t.Errorf("IsPow2(%d) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestFFTKnownTransform(t *testing.T) {
	// FFT of [1,0,0,0] is all ones; FFT of [1,1,1,1] is [4,0,0,0].
	x := []complex128{1, 0, 0, 0}
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("FFT(delta)[%d] = %v, want 1", i, v)
		}
	}
	y := []complex128{1, 1, 1, 1}
	FFT(y)
	want := []complex128{4, 0, 0, 0}
	for i, v := range y {
		if cmplx.Abs(v-want[i]) > 1e-12 {
			t.Errorf("FFT(ones)[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestFFTMatchesDFTDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 16
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	direct := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j*k) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		direct[k] = s
	}
	got := make([]complex128, n)
	copy(got, x)
	FFT(got)
	for k := range got {
		if cmplx.Abs(got[k]-direct[k]) > 1e-9 {
			t.Fatalf("FFT[%d] = %v, direct DFT = %v", k, got[k], direct[k])
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(8)) // 2..256
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(7))
		x := make([]complex128, n)
		var timeEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			timeEnergy += real(x[i]) * real(x[i])
		}
		FFT(x)
		var freqEnergy float64
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		freqEnergy /= float64(n)
		return almostEqual(timeEnergy, freqEnergy, 1e-7*(1+timeEnergy))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(6))
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			sum[i] = a[i] + b[i]
		}
		FFT(a)
		FFT(b)
		FFT(sum)
		for i := range sum {
			if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two input")
		}
	}()
	FFT(make([]complex128, 3))
}

// crossCorrelate is the full linear cross-correlation of two equal-length
// series the way every correlation in the pipeline computes it: both
// spectra at the padded size, one CorrelateSpectra, and the circular
// result's negative shifts unwrapped from the tail. Entry k corresponds
// to shift s = k-(n-1) and holds sum_t a[t]*b[t-s].
func crossCorrelate(a, b []float64) []float64 {
	n := len(a)
	m := NextPow2(2*n - 1)
	fa := RealFFT(make([]complex128, m), a, m)
	fb := RealFFT(make([]complex128, m), b, m)
	inv := correlateSpectra(fa, fb)
	out := make([]float64, 2*n-1)
	copy(out[n-1:], inv[:n])
	copy(out[:n-1], inv[m-(n-1):])
	return out
}

// bruteCrossCorrelate is the O(n^2) reference for crossCorrelate.
func bruteCrossCorrelate(a, b []float64) []float64 {
	n := len(a)
	r := make([]float64, 2*n-1)
	for s := -(n - 1); s <= n-1; s++ {
		var sum float64
		for t := 0; t < n; t++ {
			u := t - s
			if u >= 0 && u < n {
				sum += a[t] * b[u]
			}
		}
		r[s+n-1] = sum
	}
	return r
}

func TestCrossCorrelateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 5, 17, 64, 100} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		got := crossCorrelate(a, b)
		want := bruteCrossCorrelate(a, b)
		if len(got) != len(want) {
			t.Fatalf("n=%d: length %d, want %d", n, len(got), len(want))
		}
		for i := range got {
			if !almostEqual(got[i], want[i], 1e-8*(1+math.Abs(want[i]))) {
				t.Fatalf("n=%d: r[%d] = %g, want %g", n, i, got[i], want[i])
			}
		}
	}
}

func TestCrossCorrelateShiftDetection(t *testing.T) {
	// b is a copy of a delayed by 3 samples; the correlation peak must sit
	// at shift +3 (a needs to slide right... i.e. b lags a).
	n := 32
	a := make([]float64, n)
	b := make([]float64, n)
	a[5] = 1
	b[8] = 1 // delayed copy
	r := crossCorrelate(a, b)
	best, bestVal := 0, math.Inf(-1)
	for i, v := range r {
		if v > bestVal {
			bestVal, best = v, i
		}
	}
	shift := best - (n - 1)
	if shift != -3 {
		t.Fatalf("peak at shift %d, want -3 (r[k]=sum a[t]b[t-s])", shift)
	}
}

func TestCrossCorrelatePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for spectra of different lengths")
		}
	}()
	CorrelateSpectra(make([]complex128, 4), make([]complex128, 2), make([]complex128, 2))
}

func BenchmarkFFT1024(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%17), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkCrossCorrelate4096(b *testing.B) {
	n := 4096
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) / 10)
		y[i] = math.Cos(float64(i) / 10)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		crossCorrelate(x, y)
	}
}
