package mathx

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// requireAsmKernel skips, saying so, when the active kernel is goKernel
// itself: other architectures, and amd64 without AVX.
func requireAsmKernel(t testing.TB) {
	t.Helper()
	if kernel == &goKernel {
		t.Skipf("no assembly kernel on this host (GOARCH=%s, or amd64 without AVX): the Go loops are the kernel", runtime.GOARCH)
	}
}

// requireSameParts compares two kernels' outputs part by part: every part
// the Go kernel leaves non-NaN must match bit for bit, and a NaN must
// appear exactly where the Go kernel has one. Only a NaN's payload and
// sign may differ.
func requireSameParts(t testing.TB, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		for part, pair := range [2][2]float64{{real(got[i]), real(want[i])}, {imag(got[i]), imag(want[i])}} {
			g, w := pair[0], pair[1]
			if math.IsNaN(w) && math.IsNaN(g) || math.Float64bits(g) == math.Float64bits(w) {
				continue
			}
			t.Fatalf("%s: entry %d part %d = %v (%#x), Go kernel %v (%#x)", what, i, part,
				g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// compareKernels runs the active kernel and goKernel over the same
// spectra: CorrelateSpectra of a and b, and the forward and inverse
// butterflies over a.
func compareKernels(t testing.TB, what string, a, b []complex128) {
	t.Helper()
	m := len(a)
	h := max(m/2, 1)
	got := kernel.correlate(a, b, make([]complex128, h))
	want := goKernel.correlate(a, b, make([]complex128, h))
	requireSameParts(t, what+" correlate", got, want)

	p := planFor(m)
	for _, stages := range [][][]complex128{p.fwd, p.inv} {
		got := append([]complex128(nil), a...)
		want := append([]complex128(nil), a...)
		kernel.butterflies(got, stages)
		goKernel.butterflies(want, stages)
		requireSameParts(t, what+" butterflies", got, want)
	}
}

// specialValue draws one double of the given class: 0 ordinary normals,
// 1 signed zeros, small values and subnormals (whose products underflow),
// 2 exponents from -500 to 500 (no sum or product overflows), 3 values
// near overflow mixed with ordinary ones (sums overflow to ±Inf inside
// the passes), 4 ordinary values with some ±Inf and NaN, 5 signed zeros
// with a few ±1 (outputs that are zero, where the sign of every zero on
// the way shows).
func specialValue(rng *rand.Rand, class int) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch class {
	case 1:
		pool := []float64{0, 1, 0.5, 3, math.SmallestNonzeroFloat64, 0x1p-1070 * 5, 0x1p-1022, 0x1p-1023 * 3}
		return sign * pool[rng.Intn(len(pool))]
	case 2:
		return math.Ldexp(rng.NormFloat64(), rng.Intn(1001)-500)
	case 3:
		if rng.Intn(4) == 0 {
			return sign * math.MaxFloat64 * (1 - rng.Float64()/2)
		}
	case 4:
		switch rng.Intn(64) {
		case 0:
			return sign * math.Inf(1)
		case 1:
			return math.NaN()
		}
	case 5:
		if rng.Intn(16) != 0 {
			return sign * 0
		}
		return sign
	}
	return rng.NormFloat64()
}

func specialSpectrum(rng *rand.Rand, m, class int) []complex128 {
	out := make([]complex128, m)
	for i := range out {
		out[i] = complex(specialValue(rng, class), specialValue(rng, class))
	}
	return out
}

// TestKernelAsmBitIdentical holds the assembly kernel to goKernel on
// every power-of-two size from 1 to 8192 (CorrelateSpectra's m == 1 and
// m == 2 edges included) and every class of specialValue. An infinity
// anywhere turns every output of a transform into NaN, so the last two
// classes say most at the small sizes.
func TestKernelAsmBitIdentical(t *testing.T) {
	requireAsmKernel(t)
	rng := rand.New(rand.NewSource(59))
	for m := 1; m <= 8192; m <<= 1 {
		trials := max(2, 512/m)
		for class := 0; class < 6; class++ {
			for trial := 0; trial < trials; trial++ {
				a, b := specialSpectrum(rng, m, class), specialSpectrum(rng, m, class)
				compareKernels(t, fmt.Sprintf("m=%d class %d trial %d", m, class, trial), a, b)
			}
		}
	}
}

// FuzzKernelAsmBitIdentical holds the assembly kernel to goKernel on
// arbitrary doubles: data is read as little-endian float64 bits, cycled
// to fill two spectra of size 1<<(logM%14).
func FuzzKernelAsmBitIdentical(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(uint8(0), seed(1, -2))
	f.Add(uint8(1), seed(0, math.Copysign(0, -1), 1, -1))
	f.Add(uint8(3), seed(math.SmallestNonzeroFloat64, -0x1p-1022, 1e308, -math.MaxFloat64, 3.5))
	f.Add(uint8(5), seed(math.Inf(1), 2, math.NaN(), -7, math.Inf(-1), 0.25, 1e-300))
	f.Add(uint8(8), seed(0.1, 0.2, 0.3, -0.4, 0.5, 0.6, -0.7))
	f.Fuzz(func(t *testing.T, logM uint8, data []byte) {
		requireAsmKernel(t)
		if len(data) < 8 {
			return
		}
		words := len(data) / 8
		next := 0
		fill := func(m int) []complex128 {
			out := make([]complex128, m)
			for i := range out {
				re := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(next%words):]))
				im := math.Float64frombits(binary.LittleEndian.Uint64(data[8*((next+1)%words):]))
				out[i] = complex(re, im)
				next += 2
			}
			return out
		}
		m := 1 << (logM % 14)
		a := fill(m)
		compareKernels(t, fmt.Sprintf("m=%d", m), a, fill(m))
	})
}
