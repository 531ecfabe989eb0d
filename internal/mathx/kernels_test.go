package mathx

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// referenceFFT is the historical transform with the twiddle recurrence
// inline per butterfly column — the form the per-stage table cache
// replaced. The tables are generated with the identical recurrence, so
// the cached transform must reproduce this output bit for bit.
func referenceFFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	if n == 1 {
		return x
	}
	shift := bits.UintSize - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := sign * 2 * math.Pi / float64(size)
		wStep := complex(math.Cos(step), math.Sin(step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	return x
}

// TestKernelFFTTwiddleTableBitIdentical pins the table-driven transform
// to the inline-recurrence reference: identical bits, both directions,
// across sizes — the invariant that makes this PR's kernel changes
// invisible to every consumer of FFT-based math.
func TestKernelFFTTwiddleTableBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for size := 2; size <= 4096; size <<= 1 {
		for _, inverse := range []bool{false, true} {
			x := make([]complex128, size)
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			want := referenceFFT(append([]complex128(nil), x...), inverse)
			got := fft(append([]complex128(nil), x...), inverse)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("size %d inverse %v: entry %d = %v, reference %v", size, inverse, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRealSpectrumMatchesComplexFFT checks the half-size real-input path
// against the plain complex transform (numerically — the two factor the
// butterflies differently, so equality is up to rounding).
func TestRealSpectrumMatchesComplexFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 7, 16, 100, 255, 1024} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		m := NextPow2(2*n - 1)
		got := RealFFT(make([]complex128, m), x, m)

		full := make([]complex128, m)
		for i, v := range x {
			full[i] = complex(v, 0)
		}
		want := FFT(full)
		for k := range want {
			scale := 1 + math.Hypot(real(want[k]), imag(want[k]))
			if math.Abs(real(got[k])-real(want[k])) > 1e-9*scale ||
				math.Abs(imag(got[k])-imag(want[k])) > 1e-9*scale {
				t.Fatalf("n=%d: bin %d = %v, want %v", n, k, got[k], want[k])
			}
		}
	}
}

// TestRealSpectrumRoundTrip checks realIFFT(RealFFT(x)) == x up to
// rounding, the pairing every correlation in the repo relies on.
func TestRealSpectrumRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{1, 2, 8, 64, 512} {
		x := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec := RealFFT(make([]complex128, m), x, m)
		back := realIFFT(make([]float64, m), spec)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9*(1+math.Abs(x[i])) {
				t.Fatalf("m=%d: sample %d round-tripped to %v, want %v", m, i, back[i], x[i])
			}
		}
	}
}

// TestKernelCrossCorrelateScratchAllocs pins the steady-state allocation
// count of a cross-correlation over caller-owned buffers (two forward
// real transforms and the fused inverse) at zero once the twiddle cache
// is warm.
func TestKernelCrossCorrelateScratchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 500
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	m := NextPow2(2*n - 1)
	fa, fb, work := make([]complex128, m), make([]complex128, m), make([]complex128, m/2)
	correlate := func() {
		CorrelateSpectra(RealFFT(fa, a, m), RealFFT(fb, b, m), work)
	}
	correlate() // warm the twiddle cache

	if allocs := testing.AllocsPerRun(50, correlate); allocs != 0 {
		t.Fatalf("warm RealFFT + CorrelateSpectra allocates %v times per correlation, want 0", allocs)
	}
}

// realIFFT inverts a conjugate-symmetric spectrum — e.g. any product of
// RealFFT spectra, with or without conjugation of one operand — into its
// real time-domain signal, normalizing by 1/m like IFFT: the half-size
// re-pack, the inverse transform and unpackCorrelation. spec (length m, a
// power of two) is consumed as scratch. Nothing in the pipeline inverts a
// whole spectrum; it is the product-then-inverse sequence CorrelateSpectra
// replaced, with the twiddle tables and the permuting transform.
func realIFFT(dst []float64, spec []complex128) []float64 {
	m := len(spec)
	if m == 1 {
		dst[0] = real(spec[0])
		return dst[:1]
	}
	h := m / 2
	lo, hi := spec[:h], spec[h:]
	for k, w := range stageTwiddles(m, true) {
		lo[k] = repack(lo[k], hi[k], w)
	}
	return unpackCorrelation(dst[:m], fft(lo, true))
}

// unpackCorrelation writes every entry of the packed correlation z into
// dst, whose length is the transform size m: the output pass
// CorrelateSpectra no longer makes.
func unpackCorrelation(dst []float64, z []complex128) []float64 {
	for t := range dst {
		dst[t] = CorrelationAt(z, t)
	}
	return dst
}

// correlateSpectra is CorrelateSpectra unpacked into a fresh length-m
// slice.
func correlateSpectra(a, b []complex128) []float64 {
	return unpackCorrelation(make([]float64, len(a)), CorrelateSpectra(a, b, make([]complex128, max(len(a)/2, 1))))
}

// referenceRealIFFT is the inverse real transform as it stood before the
// fused kernel: re-pack with the inline twiddle recurrence, the
// inline-recurrence inverse transform, and a complex division by the
// half size. Nothing in it is shared with the production path.
func referenceRealIFFT(dst []float64, spec []complex128) []float64 {
	m := len(spec)
	dst = dst[:m]
	if m == 1 {
		dst[0] = real(spec[0])
		return dst
	}
	h := m / 2
	step := 2 * math.Pi / float64(m)
	wStep := complex(math.Cos(step), math.Sin(step))
	w := complex(1, 0)
	for k := 0; k < h; k++ {
		pk, ph := spec[k], spec[k+h]
		ek := complex((real(pk)+real(ph))/2, (imag(pk)+imag(ph))/2)
		ok := complex((real(pk)-real(ph))/2, (imag(pk)-imag(ph))/2) * w
		spec[k] = complex(real(ek)-imag(ok), imag(ek)+real(ok))
		w *= wStep
	}
	z := referenceFFT(spec[:h], true)
	nh := complex(float64(h), 0)
	for j := 0; j < h; j++ {
		v := z[j] / nh
		dst[2*j] = real(v)
		dst[2*j+1] = imag(v)
	}
	return dst
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// kernelInputs are the series shapes the fused kernel is pinned on, at
// one length: noise, a constant (its z-normalized form is all zeros, so
// every product bin is a signed zero), all zeros, a ramp and an impulse.
func kernelInputs(rng *rand.Rand, n int) map[string][]float64 {
	noise, noise2, constant, ramp, impulse := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		noise[i], noise2[i] = rng.NormFloat64(), rng.NormFloat64()*1e3
		constant[i] = -3.25
		ramp[i] = float64(i) - float64(n)/2
	}
	impulse[n/2] = -1
	return map[string][]float64{
		"noise": noise, "noise2": noise2, "constant": constant, "zero": make([]float64, n), "ramp": ramp, "impulse": impulse,
	}
}

// TestKernelCorrelateSpectraBitIdentical pins the fused correlation, read
// out through CorrelationAt, and the test's realIFFT to the sequence they
// replaced: multiply the spectra into a buffer, then the reference
// inverse real transform. Every output bit must match, the sign of a
// zero included, from the shortest series to the pipeline's window.
func TestKernelCorrelateSpectraBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 3, 16, 73, 240, 500} {
		m := NextPow2(2*n - 1)
		in := kernelInputs(rng, n)
		for an, a := range in {
			for bn, b := range in {
				fa := RealFFT(make([]complex128, m), a, m)
				fb := RealFFT(make([]complex128, m), b, m)
				prod := make([]complex128, m)
				for i := range prod {
					prod[i] = fa[i] * complex(real(fb[i]), -imag(fb[i]))
				}
				want := referenceRealIFFT(make([]float64, m), append([]complex128(nil), prod...))

				got := correlateSpectra(fa, fb)
				requireSameBits(t, fmt.Sprintf("CorrelateSpectra n=%d %s x %s", n, an, bn), got, want)

				inv := realIFFT(make([]float64, m), prod)
				requireSameBits(t, fmt.Sprintf("realIFFT n=%d %s x %s", n, an, bn), inv, want)
			}
		}
	}

	// Spectra of signed zeros and a few small values: outputs that are
	// zero reach every combination of signs, which is where multiplying
	// by 1/h and dividing by h+0i differ unless the kernel reproduces the
	// division's cross terms.
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 0.5}
	draw := func(m int) []complex128 {
		out := make([]complex128, m)
		for i := range out {
			out[i] = complex(pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
		}
		return out
	}
	for _, m := range []int{2, 4, 8, 32} {
		for trial := 0; trial < 200; trial++ {
			fa, fb := draw(m), draw(m)
			prod := make([]complex128, m)
			for i := range prod {
				prod[i] = fa[i] * complex(real(fb[i]), -imag(fb[i]))
			}
			want := referenceRealIFFT(make([]float64, m), append([]complex128(nil), prod...))
			got := correlateSpectra(fa, fb)
			requireSameBits(t, fmt.Sprintf("CorrelateSpectra m=%d signed-zero trial %d", m, trial), got, want)
			inv := realIFFT(make([]float64, m), prod)
			requireSameBits(t, fmt.Sprintf("realIFFT m=%d signed-zero trial %d", m, trial), inv, want)
		}
	}
}

// TestKernelFFTPlanConcurrentFirstUse races many goroutines into the
// first transform of sizes nothing else in the package touches: whoever
// publishes the plan, every transform must see complete tables and
// reproduce the reference.
func TestKernelFFTPlanConcurrentFirstUse(t *testing.T) {
	for _, size := range []int{1 << 13, 1 << 14} {
		rng := rand.New(rand.NewSource(int64(size)))
		x := make([]complex128, size)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := referenceFFT(append([]complex128(nil), x...), true)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := fft(append([]complex128(nil), x...), true)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("size %d: entry %d = %v, reference %v", size, i, got[i], want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
