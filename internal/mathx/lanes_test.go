package mathx

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file holds the lane kernels (lanes.go, lanes_amd64.s) to the Go
// loops, and the Go loops to the row-at-a-time and part-at-a-time forms
// they stand for.

// requireSameValues compares two kernels' float64 outputs: bit for bit
// wherever the reference is not NaN, NaN exactly where it is.
func requireSameValues(t testing.TB, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.IsNaN(w) && math.IsNaN(g) || math.Float64bits(g) == math.Float64bits(w) {
			continue
		}
		t.Fatalf("%s: entry %d = %v (%#x), Go kernel %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
	}
}

// rowsCase is one input of the operator's two products.
type rowsCase struct {
	rows [][]float64
	c, w []float64
}

// compareRows runs both products through the active kernel and through
// goKernel on the same interleaved layout.
func compareRows(t testing.TB, what string, in rowsCase) {
	t.Helper()
	var r Rows
	r.Reset(in.rows)
	got := make([]float64, len(r.dots))
	want := make([]float64, len(r.dots))
	kernel.dots(got, r.inter, in.c)
	goKernel.dots(want, r.inter, in.c)
	requireSameValues(t, what+" dots", got[:len(in.rows)], want[:len(in.rows)])

	cols := len(in.c)
	got, want = make([]float64, cols), make([]float64, cols)
	kernel.addScaled(got, in.rows, in.w)
	goKernel.addScaled(want, in.rows, in.w)
	requireSameValues(t, what+" addScaled", got, want)
}

// rowsInput draws rows of one specialValue class, with a zero weight of
// either sign at every third row (so inside four-row groups, at their
// edges and in the tail) when zeros is set.
func rowsInput(rng *rand.Rand, rows, cols, class int, zeros bool) rowsCase {
	in := rowsCase{rows: make([][]float64, rows), c: make([]float64, cols), w: make([]float64, rows)}
	for i := range in.rows {
		in.rows[i] = make([]float64, cols)
		for j := range in.rows[i] {
			in.rows[i][j] = specialValue(rng, class)
		}
		in.w[i] = specialValue(rng, class)
		if zeros && i%3 == 1 {
			in.w[i] = math.Copysign(0, float64(1-2*rng.Intn(2)))
		}
	}
	for j := range in.c {
		in.c[j] = specialValue(rng, class)
	}
	return in
}

// TestKernelAsmRowsBitIdentical holds the operator's two AVX products to
// the Go loops: 1 to 49 rows (every remainder of the four-row groups and
// of the last batch of four groups), lengths that leave every remainder
// of the sixteen- and four-column blocks, zero weights of either sign
// inside the groups, and every class of specialValue.
func TestKernelAsmRowsBitIdentical(t *testing.T) {
	requireAsmKernel(t)
	rng := rand.New(rand.NewSource(61))
	for rows := 1; rows <= 49; rows++ {
		for _, cols := range []int{1, 2, 3, 4, 5, 7, 15, 16, 17, 19, 21, 36, 240} {
			for class := 0; class < 6; class++ {
				for _, zeros := range []bool{false, true} {
					compareRows(t, fmt.Sprintf("%d rows of %d, class %d, zero weights %v", rows, cols, class, zeros),
						rowsInput(rng, rows, cols, class, zeros))
				}
			}
		}
	}
}

// TestKernelRowsMatchRowAtATime holds the active kernel, whichever it
// is, to the row-at-a-time loops the operator replaced: each dot product
// summed over j from +0, and each dst[j] adding its rows in order,
// skipping a zero weight.
func TestKernelRowsMatchRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for rows := 1; rows <= 13; rows++ {
		for _, cols := range []int{1, 3, 4, 17, 240} {
			for class := 0; class < 6; class++ {
				in := rowsInput(rng, rows, cols, class, true)
				var r Rows
				r.Reset(in.rows)
				wantDots := make([]float64, rows)
				for i, row := range in.rows {
					var sum float64
					for j, v := range row {
						sum += float64(v * in.c[j])
					}
					wantDots[i] = sum
				}
				what := fmt.Sprintf("%d rows of %d, class %d", rows, cols, class)
				requireSameValues(t, what+" Dots", r.Dots(in.c), wantDots)

				want := make([]float64, cols)
				for i, row := range in.rows {
					if in.w[i] == 0 {
						continue
					}
					for j, v := range row {
						want[j] += float64(in.w[i] * v)
					}
				}
				got := make([]float64, cols)
				r.AddScaled(got, in.w)
				requireSameValues(t, what+" AddScaled", got, want)
			}
		}
	}
}

// TestKernelDotLaneOrder holds the active kernel's dot product and
// the Go one at every length from 0 to 300, and both to the lane order
// Dot documents.
func TestKernelDotLaneOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for n := 0; n <= 300; n++ {
		for class := 0; class < 6; class++ {
			a, b := make([]float64, n), make([]float64, n)
			for k := range a {
				a[k], b[k] = specialValue(rng, class), specialValue(rng, class)
			}
			var lanes [4]float64
			for k := range a {
				lane := k % 4
				if k >= n&^3 {
					lane = 0
				}
				lanes[lane] += float64(a[k] * b[k])
			}
			want := (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
			what := fmt.Sprintf("n=%d class %d", n, class)
			requireSameValues(t, what+" Go", []float64{goKernel.dot(a, b)}, []float64{want})
			requireSameValues(t, what+" Dot", []float64{Dot(a, b)}, []float64{want})
		}
	}
}

// comparePeakScan holds the active kernel's largestPart and firstAtLeast
// to goKernel's over parts [from, to) of z: the same finite verdict, the
// same largest value when finite (up to the sign of a zero, which
// LargestPart leaves unspecified), and the same first index for every
// threshold in vs.
func comparePeakScan(t testing.TB, what string, z []complex128, from, to int, vs []float64) {
	t.Helper()
	got, gotOK := kernel.largestPart(z, from, to)
	want, wantOK := goKernel.largestPart(z, from, to)
	if gotOK != wantOK || wantOK && got != want {
		t.Fatalf("%s: largestPart [%d, %d) = %v, %v; Go kernel %v, %v", what, from, to, got, gotOK, want, wantOK)
	}
	for _, v := range vs {
		if got, want := kernel.firstAtLeast(z, from, to, v), goKernel.firstAtLeast(z, from, to, v); got != want {
			t.Fatalf("%s: firstAtLeast [%d, %d) of %v = %d, Go kernel %d", what, from, to, v, got, want)
		}
	}
}

// partOf returns part t of z, as LargestPart numbers them.
func partOf(z []complex128, t int) float64 {
	if t&1 == 0 {
		return real(z[t>>1])
	}
	return imag(z[t>>1])
}

// thresholds are the values a scan of z is tested against: its own parts
// (ties), their neighbours one ulp away, ±Inf and NaN.
func thresholds(rng *rand.Rand, z []complex128) []float64 {
	vs := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0}
	for i := 0; i < 6 && len(z) > 0; i++ {
		v := partOf(z, rng.Intn(2*len(z)))
		vs = append(vs, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	return vs
}

// TestKernelAsmPeakScanBitIdentical holds the scan's AVX kernels to the
// Go loops on every range of every z up to 40 entries (both parities of
// both ends, every remainder of the sixteen- and four-part blocks), on
// random ranges of longer ones, and on every class of specialValue: class
// 4 puts ±Inf and NaN in z.
func TestKernelAsmPeakScanBitIdentical(t *testing.T) {
	requireAsmKernel(t)
	rng := rand.New(rand.NewSource(64))
	for m := 1; m <= 40; m++ {
		for class := 0; class < 6; class++ {
			z := specialSpectrum(rng, m, class)
			vs := thresholds(rng, z)
			for from := 0; from < 2*m; from++ {
				for to := from + 1; to <= 2*m; to++ {
					comparePeakScan(t, fmt.Sprintf("m=%d class %d", m, class), z, from, to, vs)
				}
			}
		}
	}
	for _, m := range []int{128, 256, 1024} {
		for class := 0; class < 6; class++ {
			z := specialSpectrum(rng, m, class)
			vs := thresholds(rng, z)
			for trial := 0; trial < 64; trial++ {
				from := rng.Intn(2 * m)
				comparePeakScan(t, fmt.Sprintf("m=%d class %d", m, class), z, from, from+1+rng.Intn(2*m-from), vs)
			}
		}
	}
}

// TestKernelLargestPartChecksWholeEntries: whichever kernel is active,
// LargestPart's verdict covers both parts of the entries at the ends of
// its range, and its largest is the part-at-a-time maximum.
func TestKernelLargestPartChecksWholeEntries(t *testing.T) {
	z := []complex128{complex(1, 2), complex(3, 4), complex(5, 6), complex(7, 8)}
	for from := 0; from < 8; from++ {
		for to := from + 1; to <= 8; to++ {
			largest, ok := LargestPart(z, from, to)
			if !ok || largest != float64(to) {
				t.Fatalf("[%d, %d) of 1..8 = %v, %v; want %d, true", from, to, largest, ok, to)
			}
			for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
				for t0 := from &^ 1; t0 < (to+1)&^1; t0++ {
					zz := append([]complex128(nil), z...)
					if t0&1 == 0 {
						zz[t0>>1] = complex(bad, imag(zz[t0>>1]))
					} else {
						zz[t0>>1] = complex(real(zz[t0>>1]), bad)
					}
					if _, ok := LargestPart(zz, from, to); ok {
						t.Fatalf("[%d, %d) with %v at part %d: finite", from, to, bad, t0)
					}
				}
			}
		}
	}
	if largest, ok := LargestPart(z, 3, 3); !ok || !math.IsInf(largest, -1) {
		t.Fatalf("empty range = %v, %v; want -Inf, true", largest, ok)
	}
}

// FuzzKernelLanesBitIdentical holds every lane kernel to the Go loops on
// arbitrary doubles. The first bytes pick the shape (rows, columns, a
// part range and which part is the threshold); the rest, read as
// little-endian float64 bits, are cycled to fill the rows, the vector,
// the weights and z.
func FuzzKernelLanesBitIdentical(f *testing.F) {
	seed := func(head []byte, vals ...float64) []byte {
		out := append([]byte(nil), head...)
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(seed([]byte{5, 17, 3, 20, 1}, 1, -2, 0.5, 3))
	f.Add(seed([]byte{48, 3, 0, 5, 0}, 0, math.Copysign(0, -1), 1, -1))
	f.Add(seed([]byte{7, 240, 1, 200, 2}, math.SmallestNonzeroFloat64, -0x1p-1022, 0x1p500, -0x1p-500, 3.5))
	f.Add(seed([]byte{9, 33, 6, 31, 3}, math.Inf(1), 2, math.NaN(), -7, math.Inf(-1), 0.25, 1e-300))
	f.Fuzz(func(t *testing.T, data []byte) {
		requireAsmKernel(t)
		if len(data) < 5+8 {
			return
		}
		rows, cols := 1+int(data[0])%49, 1+int(data[1])
		from, span, pick := int(data[2]), 1+int(data[3]), int(data[4])
		words := data[5:]
		nwords := len(words) / 8
		next := 0
		val := func() float64 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(words[8*(next%nwords):]))
			next++
			return v
		}
		in := rowsCase{rows: make([][]float64, rows), c: make([]float64, cols), w: make([]float64, rows)}
		for i := range in.rows {
			in.rows[i] = make([]float64, cols)
			for j := range in.rows[i] {
				in.rows[i][j] = val()
			}
			in.w[i] = val()
		}
		for j := range in.c {
			in.c[j] = val()
		}
		compareRows(t, "rows", in)
		requireSameValues(t, "dot", []float64{kernel.dot(in.c, in.rows[0])}, []float64{goKernel.dot(in.c, in.rows[0])})

		z := make([]complex128, (from+span+1)/2)
		for i := range z {
			z[i] = complex(val(), val())
		}
		v := partOf(z, (from+pick)%(2*len(z)))
		comparePeakScan(t, "z", z, from, from+span, []float64{v, math.Nextafter(v, math.Inf(-1))})
	})
}
