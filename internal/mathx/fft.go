package mathx

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// NextPow2 returns the smallest power of two that is >= n. It returns 1 for
// n <= 1. The result is used to pad series before FFT-based correlation.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// fftPlan is everything a transform of one size reads besides its input:
// the bit-reversal permutation as a list of swaps, and one twiddle table
// per butterfly stage and direction. Entry k of a stage table holds the
// k-th factor produced by the multiplicative recurrence
// w *= exp(sign*2*pi*i/size) starting from 1. The recurrence — including
// its accumulated rounding — is exactly what the pre-table transform
// computed inline per butterfly column, so table-driven output is
// bit-identical to the historical inline form.
//
// A plan is immutable once published. The plan of size n shares the stage
// tables of size n/2's plan and adds its own top stage, so one table
// exists per stage size and direction and the whole cache is bounded by
// the largest transform the process has seen.
type fftPlan struct {
	swaps    [][2]int32
	fwd, inv [][]complex128 // stage s (butterfly size 2<<s) at index s
}

// fftPlans is indexed by log2 of the transform size. Lookups are one
// atomic load; two goroutines racing to build the same plan compute
// identical tables and the first to publish wins.
var fftPlans [bits.UintSize]atomic.Pointer[fftPlan]

// planFor returns the plan for transforms of size n (a power of two >= 2).
func planFor(n int) *fftPlan {
	lg := bits.TrailingZeros(uint(n))
	if p := fftPlans[lg].Load(); p != nil {
		return p
	}

	p := &fftPlan{}
	if n > 2 {
		sub := planFor(n / 2)
		p.fwd = append(p.fwd, sub.fwd...)
		p.inv = append(p.inv, sub.inv...)
	}
	p.fwd = append(p.fwd, stageTable(n, -1))
	p.inv = append(p.inv, stageTable(n, 1))
	shift := bits.UintSize - uint(lg)
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse(uint(i)) >> shift); j > i {
			p.swaps = append(p.swaps, [2]int32{int32(i), int32(j)})
		}
	}
	fftPlans[lg].CompareAndSwap(nil, p)
	return fftPlans[lg].Load()
}

func stageTable(size int, sign float64) []complex128 {
	step := sign * 2 * math.Pi / float64(size)
	wStep := complex(math.Cos(step), math.Sin(step))
	tab := make([]complex128, size/2)
	w := complex(1, 0)
	for k := range tab {
		tab[k] = w
		w *= wStep
	}
	return tab
}

// stageTwiddles returns the twiddle table of the butterfly stage of the
// given size, i.e. exp(sign*2*pi*i*k/size) for k < size/2.
func stageTwiddles(size int, inverse bool) []complex128 {
	p := planFor(size)
	if inverse {
		return p.inv[len(p.inv)-1]
	}
	return p.fwd[len(p.fwd)-1]
}

// FFT computes the forward discrete Fourier transform of x in place and
// returns x. The length of x must be a power of two; FFT panics otherwise
// (callers pad with NextPow2 first). The transform is unnormalized:
// X[k] = sum_j x[j] * exp(-2*pi*i*j*k/n).
func FFT(x []complex128) []complex128 {
	return fft(x, false)
}

// IFFT computes the inverse discrete Fourier transform of x in place and
// returns x, normalizing by 1/n so that IFFT(FFT(x)) == x up to rounding.
// The length of x must be a power of two.
func IFFT(x []complex128) []complex128 {
	fft(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
	return x
}

// fft is an iterative radix-2 Cooley-Tukey transform. inverse selects the
// conjugate twiddle factors (without the 1/n normalization). Permutation
// and twiddles come from the size's plan, so a steady-state transform
// allocates nothing and takes no lock.
func fft(x []complex128, inverse bool) []complex128 {
	n := len(x)
	if !IsPow2(n) {
		panic(fmt.Sprintf("mathx: FFT length %d is not a power of two", n))
	}
	if n == 1 {
		return x
	}

	p := planFor(n)
	for _, sw := range p.swaps {
		x[sw[0]], x[sw[1]] = x[sw[1]], x[sw[0]]
	}
	stages := p.fwd
	if inverse {
		stages = p.inv
	}
	// Two stages per pass: a block of 4q values goes through its two
	// stage-q butterflies and then its two stage-2q butterflies while the
	// four operands are in registers. Every butterfly is the one the
	// stage-at-a-time loop performs, on the same operands, so the output
	// is bit-identical; only the loads and stores between the paired
	// stages are gone.
	st := 0
	for ; st+1 < len(stages); st += 2 {
		t1, t2 := stages[st], stages[st+1]
		q := len(t1)
		t2lo, t2hi := t2[:q:q], t2[q:][:q:q]
		for start := 0; start < n; start += 4 * q {
			blk := x[start:][: 4*q : 4*q]
			x0, x1, x2, x3 := blk[:q:q], blk[q:][:q:q], blk[2*q:][:q:q], blk[3*q:][:q:q]
			for k, w := range t1 {
				a, c := x0[k], x2[k]
				b, d := x1[k]*w, x3[k]*w
				a, b = a+b, a-b
				c, d = c+d, c-d
				c *= t2lo[k]
				d *= t2hi[k]
				x0[k], x2[k] = a+c, a-c
				x1[k], x3[k] = b+d, b-d
			}
		}
	}
	if st < len(stages) {
		tab := stages[st]
		half := len(tab)
		for start := 0; start < n; start += 2 * half {
			blk := x[start:][: 2*half : 2*half]
			lo, hi := blk[:half:half], blk[half:][:half:half]
			for k, w := range tab {
				a := lo[k]
				b := hi[k] * w
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
	return x
}

// RealFFT computes the unnormalized forward DFT of the real series x,
// zero-padded to length m (a power of two >= len(x)), writing the full
// complex spectrum into dst[:m] and returning it. It packs the even/odd
// samples of x into one half-size complex transform, so a real input
// costs half a complex FFT. Each series is transformed alone — never
// packed pairwise with another — so a series' spectrum depends only on
// its own samples; the spectrum caches in internal/kshape rely on that
// for exact batched == pairwise distance equality.
func RealFFT(dst []complex128, x []float64, m int) []complex128 {
	if !IsPow2(m) || m < len(x) {
		panic(fmt.Sprintf("mathx: RealFFT pad %d must be a power of two >= input length %d", m, len(x)))
	}
	dst = dst[:m]
	if m == 1 {
		v := 0.0
		if len(x) > 0 {
			v = x[0]
		}
		dst[0] = complex(v, 0)
		return dst
	}

	// Pack z[j] = x[2j] + i*x[2j+1] (zero-padded) and transform at half
	// size.
	h := m / 2
	for j := 0; j < h; j++ {
		var re, im float64
		if 2*j < len(x) {
			re = x[2*j]
		}
		if 2*j+1 < len(x) {
			im = x[2*j+1]
		}
		dst[j] = complex(re, im)
	}
	fft(dst[:h], false)

	// Unpack: with E and O the DFTs of the even and odd samples,
	//   E_k = (Z[k] + conj(Z[h-k])) / 2
	//   O_k = (Z[k] - conj(Z[h-k])) / (2i)
	//   X[k] = E_k + W_m^k * O_k,  X[k+h] = E_k - W_m^k * O_k
	// where W_m^k is exactly the forward stage-m twiddle table entry.
	// Processing index pairs (k, h-k) together makes the unpack in-place.
	tab := stageTwiddles(m, false)
	z0 := dst[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[h] = complex(real(z0)-imag(z0), 0)
	for k := 1; k <= h/2; k++ {
		j := h - k
		zk, zj := dst[k], dst[j]

		ek := complex((real(zk)+real(zj))/2, (imag(zk)-imag(zj))/2)
		ok := complex((imag(zk)+imag(zj))/2, (real(zj)-real(zk))/2)
		tk := tab[k] * ok
		dst[k] = ek + tk
		dst[k+h] = ek - tk

		if j != k {
			ej := complex((real(zj)+real(zk))/2, (imag(zj)-imag(zk))/2)
			oj := complex((imag(zj)+imag(zk))/2, (real(zk)-real(zj))/2)
			tj := tab[j] * oj
			dst[j] = ej + tj
			dst[j+h] = ej - tj
		}
	}
	return dst
}

// RealIFFT inverts a conjugate-symmetric spectrum — e.g. any product of
// RealFFT spectra (with or without conjugation of one operand, both real
// inputs) — into its real time-domain signal, normalizing by 1/m like
// IFFT. spec (length m, a power of two) is consumed as scratch; dst must
// have capacity for m values. It runs one half-size complex inverse
// transform instead of a full-size one. Nothing in the pipeline calls it:
// it is the second half of the product-then-inverse sequence the tests
// hold CorrelateSpectra and the k-Shape distance kernel to.
func RealIFFT(dst []float64, spec []complex128) []float64 {
	m := len(spec)
	if !IsPow2(m) {
		panic(fmt.Sprintf("mathx: RealIFFT length %d is not a power of two", m))
	}
	dst = dst[:m]
	if m == 1 {
		dst[0] = real(spec[0])
		return dst
	}
	// Each slot k is read before it is written, so the re-pack is
	// in-place.
	h := m / 2
	lo, hi := spec[:h], spec[h:]
	for k, w := range stageTwiddles(m, true) {
		lo[k] = repack(lo[k], hi[k], w)
	}
	return inverseHalf(dst, lo)
}

// CorrelateSpectra writes into dst[:m] the circular cross-correlation of
// two real signals given their RealFFT spectra a and b (both of length
// m, a power of two): the inverse transform of a[k]·conj(b[k]), entry j
// holding sum_t x_a[t+j]·x_b[t] with indices mod m (negative shifts wrap
// to the tail of dst). work needs capacity for m/2 values; a and b are
// only read. It is the spectrum product, the half-size re-pack, the
// inverse transform and the unpack in one routine that forms each product
// bin where the re-pack consumes it — the same floating-point operations
// in the same order as multiplying into a buffer and calling RealIFFT,
// minus one pass over the spectrum.
func CorrelateSpectra(dst []float64, a, b, work []complex128) []float64 {
	m := len(a)
	if !IsPow2(m) || len(b) != m {
		panic(fmt.Sprintf("mathx: CorrelateSpectra needs equal power-of-two lengths, got %d and %d", m, len(b)))
	}
	dst = dst[:m]
	if m == 1 {
		dst[0] = real(a[0] * conj(b[0]))
		return dst
	}
	h := m / 2
	alo, ahi, blo, bhi := a[:h], a[h:], b[:h], b[h:]
	z := work[:h]
	for k, w := range stageTwiddles(m, true) {
		z[k] = repack(alo[k]*conj(blo[k]), ahi[k]*conj(bhi[k]), w)
	}
	return inverseHalf(dst, z)
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// repack folds bins k and k+h of a conjugate-symmetric spectrum P of
// length 2h into bin k of the spectrum of the interleaved half-size
// signal z[j] = p[2j] + i*p[2j+1]:
//
//	E_k = (P[k] + P[k+h]) / 2
//	O_k = (P[k] - P[k+h]) / 2 * exp(+2*pi*i*k/2h)
//	Z[k] = E_k + i*O_k
//
// w is the inverse stage-2h twiddle exp(+2*pi*i*k/2h).
func repack(pk, ph, w complex128) complex128 {
	ek := complex((real(pk)+real(ph))/2, (imag(pk)+imag(ph))/2)
	ok := complex((real(pk)-real(ph))/2, (imag(pk)-imag(ph))/2) * w
	return complex(real(ek)-imag(ok), imag(ek)+real(ok))
}

// inverseHalf is the one inverse path behind RealIFFT and
// CorrelateSpectra: a half-size inverse transform of the re-packed
// spectrum z (consumed), whose real and imaginary parts are the even and
// odd output samples. The /2 folded into repack plus the /h here totals
// the 1/m normalization of a full-size IFFT.
func inverseHalf(dst []float64, z []complex128) []float64 {
	h := len(z)
	fft(z, true)
	// h is a power of two, so multiplying by 1/h rounds exactly like
	// dividing by h. The v*0 terms are what complex division by h+0i
	// adds to each part; they keep the sign of a zero result, and a
	// non-finite part's spread into the other, identical to z[j]/h.
	rh := 1 / float64(h)
	dst = dst[:2*h]
	for j, v := range z {
		dst[2*j] = (real(v) + imag(v)*0) * rh
		dst[2*j+1] = (imag(v) - real(v)*0) * rh
	}
	return dst
}
