package mathx

import (
	"fmt"
	"math"
)

// Rows is a set of equal-length rows prepared for the two products of an
// implicit Gram operator v -> Aᵀ(A·v): every row's dot product with a
// vector, and the rows' sum weighted by one value each. Reset lays the
// rows out a second time, four at a time interleaved, so the dot products
// can run four rows per instruction while each row's sum still runs over
// its columns in order. The zero value is ready to use; a Rows must not be
// used concurrently.
type Rows struct {
	rows [][]float64
	cols int
	// inter holds the rows four at a time: row 4g+l, column j at
	// inter[4*cols*g + 4*j + l], with zero rows padding the last group.
	inter []float64
	dots  []float64
}

// Reset makes r the given rows, which must all have one length. r reads
// rows until the next Reset and never writes them.
func (r *Rows) Reset(rows [][]float64) {
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	padded := (len(rows) + 3) &^ 3
	if cap(r.inter) < padded*cols {
		r.inter = make([]float64, padded*cols)
	}
	if cap(r.dots) < padded {
		r.dots = make([]float64, padded)
	}
	r.rows, r.cols, r.inter, r.dots = rows, cols, r.inter[:padded*cols], r.dots[:padded]
	for g := 0; g < padded; g += 4 {
		blk := r.inter[g*cols:][: 4*cols : 4*cols]
		for l := 0; l < 4; l++ {
			if g+l >= len(rows) {
				for j := 0; j < cols; j++ {
					blk[4*j+l] = 0
				}
				continue
			}
			row := rows[g+l]
			if len(row) != cols {
				panic(fmt.Sprintf("mathx: row %d has length %d, want %d", g+l, len(row), cols))
			}
			for j, v := range row {
				blk[4*j+l] = v
			}
		}
	}
}

// Dots returns every row's dot product with c, each summed over j in
// ascending order from +0: the bits of the row-at-a-time loop. The result
// is r's own buffer, valid until the next call.
func (r *Rows) Dots(c []float64) []float64 {
	if len(c) != r.cols {
		panic(fmt.Sprintf("mathx: dot products with %d values over rows of %d", len(c), r.cols))
	}
	kernel.dots(r.dots, r.inter, c)
	return r.dots[:len(r.rows)]
}

// AddScaled sets dst to the sum of w[i]·row i over the rows whose weight
// is not zero: each dst[j] starts at +0 and adds its rows in ascending
// order, skipping a zero weight as a row-at-a-time loop that tests for it
// would.
func (r *Rows) AddScaled(dst, w []float64) {
	if len(dst) != r.cols || len(w) != len(r.rows) {
		panic(fmt.Sprintf("mathx: %d weights into %d values over %d rows of %d", len(w), len(dst), len(r.rows), r.cols))
	}
	kernel.addScaled(dst, r.rows, w)
}

// Dot returns the dot product of a and b (equal lengths) summed in four
// lanes: lane l adds a[k]·b[k] for k ≡ l (mod 4) in ascending k up to the
// last whole group of four, lane 0 then adds the rest, and the result is
// (lane0 + lane1) + (lane2 + lane3). That is not the sequential sum's
// rounding, but every kernel rounds it alike.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mathx: Dot of lengths %d and %d", len(a), len(b)))
	}
	return kernel.dot(a, b)
}

// LargestPart returns the largest of parts from..to-1 of a packed
// correlation z (part t is real(z[t/2]) for even t and imag(z[t/2]) for
// odd t, as CorrelationAt reads it), and whether both parts of every
// entry of z those parts lie in are finite. The largest is meaningful
// only then, and the sign of a zero largest is unspecified. An empty range
// returns -Inf and true.
func LargestPart(z []complex128, from, to int) (largest float64, finite bool) {
	if from >= to {
		return math.Inf(-1), true
	}
	checkParts(z, from, to)
	// The entries' other parts at the two ends.
	if from&1 == 1 && !isFinite(real(z[from>>1])) || to&1 == 1 && !isFinite(imag(z[to>>1])) {
		return math.Inf(-1), false
	}
	return kernel.largestPart(z, from, to)
}

// FirstPartAtLeast returns the first t in [from, to) whose part of z (as
// LargestPart numbers them) is at least v, or to when there is none.
func FirstPartAtLeast(z []complex128, from, to int, v float64) int {
	if from >= to {
		return to
	}
	checkParts(z, from, to)
	return kernel.firstAtLeast(z, from, to, v)
}

func checkParts(z []complex128, from, to int) {
	if from < 0 || to > 2*len(z) {
		panic(fmt.Sprintf("mathx: parts [%d, %d) of %d entries", from, to, len(z)))
	}
}

func isFinite(v float64) bool { return v-v == 0 }

// dotsGo writes the dot product of every row of the interleaved layout
// inter with c into dst, one group of four rows at a time with one
// accumulator per row. The conversions keep every product rounded on its
// own on every architecture, as the assembly rounds it.
func dotsGo(dst, inter, c []float64) {
	n := len(c)
	for g := 0; g+4 <= len(dst); g += 4 {
		blk := inter[g*n:][: 4*n : 4*n]
		var s0, s1, s2, s3 float64
		for k := 0; k+3 < len(blk); k += 4 {
			x := c[k>>2]
			s0 += float64(blk[k] * x)
			s1 += float64(blk[k+1] * x)
			s2 += float64(blk[k+2] * x)
			s3 += float64(blk[k+3] * x)
		}
		dst[g], dst[g+1], dst[g+2], dst[g+3] = s0, s1, s2, s3
	}
}

// addScaledGo goes over the rows four at a time: each dst[j] adds the
// four weighted rows left to right, which is the row-at-a-time loop's
// order, and a group holding a zero weight goes row by row so the zero
// weight is skipped.
func addScaledGo(dst []float64, rows [][]float64, w []float64) {
	clear(dst)
	n := len(dst)
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		w0, w1, w2, w3 := w[i], w[i+1], w[i+2], w[i+3]
		if w0 == 0 || w1 == 0 || w2 == 0 || w3 == 0 {
			for r := i; r < i+4; r++ {
				addRow(dst, rows[r], w[r])
			}
			continue
		}
		r0, r1, r2, r3 := rows[i][:n:n], rows[i+1][:n:n], rows[i+2][:n:n], rows[i+3][:n:n]
		for j := range dst {
			dst[j] = dst[j] + float64(w0*r0[j]) + float64(w1*r1[j]) + float64(w2*r2[j]) + float64(w3*r3[j])
		}
	}
	for ; i < len(rows); i++ {
		addRow(dst, rows[i], w[i])
	}
}

// addRow adds w·row to dst, skipping a zero weight.
func addRow(dst, row []float64, w float64) {
	if w == 0 {
		return
	}
	row = row[:len(dst)]
	for j, v := range row {
		dst[j] += float64(w * v)
	}
}

func dotGo(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= len(a); k += 4 {
		s0 += float64(a[k] * b[k])
		s1 += float64(a[k+1] * b[k+1])
		s2 += float64(a[k+2] * b[k+2])
		s3 += float64(a[k+3] * b[k+3])
	}
	for ; k < len(a); k++ {
		s0 += float64(a[k] * b[k])
	}
	return (s0 + s1) + (s2 + s3)
}

// largestPartGo walks z's entries rather than its parts, so each entry is
// one load; the parts at the ends of the range are the first part's
// imaginary half and the last part's real half.
func largestPartGo(z []complex128, from, to int) (float64, bool) {
	largest, finite := math.Inf(-1), true
	t := from
	if t&1 == 1 {
		v := imag(z[t>>1])
		largest, finite = v, isFinite(v)
		t++
	}
	for _, c := range z[t>>1 : to>>1] {
		re, im := real(c), imag(c)
		if re > largest {
			largest = re
		}
		if im > largest {
			largest = im
		}
		if !isFinite(re) || !isFinite(im) {
			finite = false
		}
	}
	if to&1 == 1 {
		v := real(z[to>>1])
		if v > largest {
			largest = v
		}
		finite = finite && isFinite(v)
	}
	return largest, finite
}

func firstAtLeastGo(z []complex128, from, to int, v float64) int {
	t := from
	if t&1 == 1 {
		if imag(z[t>>1]) >= v {
			return t
		}
		t++
	}
	for _, c := range z[t>>1 : to>>1] {
		if real(c) >= v {
			return t
		}
		if imag(c) >= v {
			return t + 1
		}
		t += 2
	}
	if t < to && real(z[t>>1]) >= v {
		return t
	}
	return to
}
