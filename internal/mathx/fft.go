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
// the bit-reversal permutation, and one twiddle table per butterfly stage
// and direction. Entry k of a stage table holds the k-th factor produced
// by the multiplicative recurrence w *= exp(sign*2*pi*i/size) starting
// from 1. The recurrence — including its accumulated rounding — is
// exactly what the pre-table transform computed inline per butterfly
// column, so table-driven output is bit-identical to the historical
// inline form.
//
// A plan is immutable once published. The plan of size n shares the stage
// tables of size n/2's plan and adds its own top stage, so one table
// exists per stage size and direction and the whole cache is bounded by
// the largest transform the process has seen.
type fftPlan struct {
	rev      []int32        // rev[i] is i with its log2(size) bits reversed
	fwd, inv [][]complex128 // stage s (butterfly size 2<<s) at index s
}

// fftPlans is indexed by log2 of the transform size. Lookups are one
// atomic load; two goroutines racing to build the same plan compute
// identical tables and the first to publish wins.
var fftPlans [bits.UintSize]atomic.Pointer[fftPlan]

// planFor returns the plan for transforms of size n (a power of two >= 1).
func planFor(n int) *fftPlan {
	lg := bits.TrailingZeros(uint(n))
	if p := fftPlans[lg].Load(); p != nil {
		return p
	}

	p := &fftPlan{rev: make([]int32, n)}
	if n > 2 {
		sub := planFor(n / 2)
		p.fwd = append(p.fwd, sub.fwd...)
		p.inv = append(p.inv, sub.inv...)
	}
	if n > 1 {
		p.fwd = append(p.fwd, stageTable(n, -1))
		p.inv = append(p.inv, stageTable(n, 1))
	}
	shift := bits.UintSize - uint(lg)
	for i := 1; i < n; i++ {
		p.rev[i] = int32(bits.Reverse(uint(i)) >> shift)
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
	for i, j := range p.rev {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	stages := p.fwd
	if inverse {
		stages = p.inv
	}
	kernel.butterflies(x, stages)
	return x
}

// sbdKernel is one implementation of the loops an SBD correlation spends
// its time in: the butterfly passes and CorrelateSpectra's product and
// re-pack. goKernel is the portable path and the reference every other
// kernel is held to bit for bit; on amd64, fft_amd64.go makes the AVX
// kernel the active one at init when the CPU and the OS allow it.
//
// The assembly passes take two butterflies at a time, so a transform of
// size 2 and a spectrum of size 2 always take goKernel's passes.
type sbdKernel struct {
	// pass1 runs stages 0 and 1 (butterfly sizes 2 and 4) over x, whose
	// length is a multiple of 4; t0 and t1 are their twiddle tables.
	pass1 func(x, t0, t1 []complex128)
	// radix4 runs the stages of tables t1 and t2 (sizes 2q and 4q, where
	// q = len(t1)) over x, one block of 4q values at a time.
	radix4 func(x, t1, t2 []complex128)
	// radix2 runs the stage of table tab over x.
	radix2 func(x, tab []complex128)
	// product writes z[rev[k]] = repack(a[k]*conj(b[k]),
	// a[k+h]*conj(b[k+h]), tw[k]) for every k < h = len(tw). z must not
	// overlap a or b.
	product func(z, a, b, tw []complex128, rev []int32)
}

var goKernel = sbdKernel{pass1Go, radix4Go, radix2Go, productGo}

// kernel is the sbdKernel that fft and CorrelateSpectra run.
var kernel = &goKernel

// butterflies runs every butterfly stage over x, which must already be in
// bit-reversed order. The correlation's re-pack writes each bin straight
// to its bit-reversed slot and so skips fft's permutation pass.
//
// Two stages go per pass: a block of 4q values goes through its two
// stage-q butterflies and then its two stage-2q butterflies while the
// four operands are in registers. Every butterfly is the one the
// stage-at-a-time loop performs, on the same operands, so the output is
// bit-identical; only the loads and stores between the paired stages are
// gone. The first pass (q = 1) is one flat loop over blocks of four.
func (k *sbdKernel) butterflies(x []complex128, stages [][]complex128) {
	if len(x) < 4 {
		k = &goKernel
	}
	st := 0
	if len(stages) >= 2 {
		k.pass1(x, stages[0], stages[1])
		st = 2
	}
	for ; st+1 < len(stages); st += 2 {
		k.radix4(x, stages[st], stages[st+1])
	}
	if st < len(stages) {
		k.radix2(x, stages[st])
	}
}

func pass1Go(x, t0, t1 []complex128) {
	w, w2lo, w2hi := t0[0], t1[0], t1[1]
	for start := 0; start < len(x); start += 4 {
		blk := x[start:][:4:4]
		a, c := blk[0], blk[2]
		b, d := blk[1]*w, blk[3]*w
		a, b = a+b, a-b
		c, d = c+d, c-d
		c *= w2lo
		d *= w2hi
		blk[0], blk[2] = a+c, a-c
		blk[1], blk[3] = b+d, b-d
	}
}

func radix4Go(x, t1, t2 []complex128) {
	q := len(t1)
	t2lo, t2hi := t2[:q:q], t2[q:][:q:q]
	for start := 0; start < len(x); start += 4 * q {
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

func radix2Go(x, tab []complex128) {
	half := len(tab)
	for start := 0; start < len(x); start += 2 * half {
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

func productGo(z, a, b, tw []complex128, rev []int32) {
	h := len(tw)
	// Every slice is cut to length h so the loop indexes them unchecked.
	alo, ahi, blo, bhi := a[:h:h], a[h:][:h:h], b[:h:h], b[h:][:h:h]
	rev = rev[:h]
	for k, w := range tw {
		z[rev[k]] = repack(alo[k]*conj(blo[k]), ahi[k]*conj(bhi[k]), w)
	}
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

// CorrelateSpectra returns the circular cross-correlation of two real
// signals given their RealFFT spectra a and b (both of length m, a power
// of two) — the inverse transform of a[k]·conj(b[k]), entry t holding
// sum_i x_a[i+t]·x_b[i] with indices mod m — in the packed form the
// half-size inverse transform leaves it: z has h = max(m/2, 1) entries,
// the real part of z[j] is h times entry 2j and the imaginary part h
// times entry 2j+1. CorrelationAt reads one entry out. z lives in work,
// which needs capacity for h values and must not overlap a or b; a and b
// are only read.
//
// It forms each product bin where the half-size re-pack consumes it,
// writes the re-packed bin straight to its bit-reversed slot and runs
// the inverse butterflies: the floating-point operations of multiplying
// the spectra into a buffer and inverting it with a half-size real
// transform, in the same order, minus the buffer, the permutation and
// the output pass. A scan for the largest entry compares the raw parts:
// 1/h is a power of two, so scaling preserves their order, and only the
// entries it keeps need CorrelationAt.
func CorrelateSpectra(a, b, work []complex128) []complex128 {
	return kernel.correlate(a, b, work)
}

func (k *sbdKernel) correlate(a, b, work []complex128) []complex128 {
	m := len(a)
	if !IsPow2(m) || len(b) != m {
		panic(fmt.Sprintf("mathx: CorrelateSpectra needs equal power-of-two lengths, got %d and %d", m, len(b)))
	}
	if m == 1 {
		z := work[:1]
		z[0] = a[0] * conj(b[0])
		return z
	}
	h := m / 2
	if h < 2 {
		k = &goKernel
	}
	z := work[:h]
	p := planFor(h)
	k.product(z, a, b, stageTwiddles(m, true), p.rev)
	k.butterflies(z, p.inv)
	return z
}

// CorrelationAt returns entry t of the correlation CorrelateSpectra
// returned packed in z. The /2 folded into the re-pack and the 1/h here
// total the 1/m normalization of a full-size inverse transform; h is a
// power of two, so multiplying by 1/h rounds exactly like dividing by h.
// The v*0 terms are what complex division by h+0i adds to each part:
// they keep the sign of a zero result, and spread a non-finite part into
// the other as a NaN. That matches z[t/2]/h except where both parts come
// out NaN: complex division then recovers infinities (C99 Annex G), and
// this keeps the NaNs.
func CorrelationAt(z []complex128, t int) float64 {
	v := z[t>>1]
	rh := 1 / float64(len(z))
	if t&1 == 0 {
		return (real(v) + imag(v)*0) * rh
	}
	return (imag(v) - real(v)*0) * rh
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
