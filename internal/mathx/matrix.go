package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system is (numerically) rank
// deficient and no unique solution exists.
var ErrSingular = errors.New("mathx: matrix is singular or rank deficient")

// Matrix is a dense, row-major matrix of float64 values. The zero value is
// an empty matrix; Resize gives it a shape.
type Matrix struct {
	rows, cols int
	data       []float64
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Resize reshapes m to r-by-c in place, reusing the backing array when it
// is large enough. The contents are unspecified afterwards; callers must
// write every cell before reading. It returns m, and panics on a negative
// dimension.
func (m *Matrix) Resize(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mathx: invalid matrix shape %dx%d", r, c))
	}
	if cap(m.data) < r*c {
		m.data = make([]float64, r*c)
	} else {
		m.data = m.data[:r*c]
	}
	m.rows, m.cols = r, c
	return m
}

// TInto writes the transpose of m into dst (resized to fit) and returns
// dst.
func (m *Matrix) TInto(dst *Matrix) *Matrix {
	dst.Resize(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			dst.data[j*dst.cols+i] = m.data[i*m.cols+j]
		}
	}
	return dst
}

// MulInto writes the matrix product m*b into dst (resized and zeroed) and
// returns dst. It panics on a shape mismatch.
func (m *Matrix) MulInto(dst *Matrix, b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mathx: Mul shape mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := dst.Resize(m.rows, b.cols)
	for i := range out.data {
		out.data[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			rowB := b.data[k*b.cols : (k+1)*b.cols]
			rowO := out.data[i*out.cols : (i+1)*out.cols]
			for j, v := range rowB {
				rowO[j] += a * v
			}
		}
	}
	return out
}

// MulVecInto writes the matrix-vector product m*x into out (capacity >=
// Rows) and returns out[:Rows]. It panics on a shape mismatch.
func (m *Matrix) MulVecInto(out []float64, x []float64) []float64 {
	if m.cols != len(x) {
		panic(fmt.Sprintf("mathx: MulVec shape mismatch %dx%d * %d", m.rows, m.cols, len(x)))
	}
	out = out[:m.rows]
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// LSScratch holds the QR workspace reused by SolveLeastSquaresInto: the
// factored copy of the design and the reflected response. The zero value
// is ready to use; a scratch must not be used concurrently.
type LSScratch struct {
	r Matrix
	y []float64
}

// SolveLeastSquaresInto solves min_x ||A*x - b||_2 using Householder QR.
// A must have at least as many rows as columns; it returns ErrSingular
// when A is numerically rank deficient. The solution buffer and the QR
// workspace are the caller's, so repeated solves allocate nothing; dst
// may be nil or short, in which case the solution is freshly allocated.
func SolveLeastSquaresInto(dst []float64, a *Matrix, b []float64, s *LSScratch) ([]float64, error) {
	if a.rows != len(b) {
		return nil, fmt.Errorf("mathx: design has %d rows but response has %d", a.rows, len(b))
	}
	if a.rows < a.cols {
		return nil, fmt.Errorf("mathx: underdetermined system %dx%d", a.rows, a.cols)
	}
	n, p := a.rows, a.cols
	if p == 0 {
		return nil, errors.New("mathx: empty design matrix")
	}

	r := s.r.Resize(n, p)
	copy(r.data, a.data)
	if cap(s.y) < n {
		s.y = make([]float64, n)
	}
	y := s.y[:n]
	copy(y, b)

	// Householder QR: for each column k, reflect so that the subdiagonal
	// becomes zero; apply the same reflection to y.
	for k := 0; k < p; k++ {
		// norm of column k below (and including) the diagonal
		var norm float64
		for i := k; i < n; i++ {
			norm = math.Hypot(norm, r.At(i, k))
		}
		if norm == 0 {
			return nil, ErrSingular
		}
		// Give norm the sign of the pivot so the reflector head
		// v[k] = pivot/norm + 1 stays >= 1 (numerically stable choice).
		if r.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < n; i++ {
			r.Set(i, k, r.At(i, k)/norm)
		}
		r.Set(k, k, r.At(k, k)+1)

		// Apply the reflector to the remaining columns.
		for j := k + 1; j < p; j++ {
			var s float64
			for i := k; i < n; i++ {
				s += r.At(i, k) * r.At(i, j)
			}
			s = -s / r.At(k, k)
			for i := k; i < n; i++ {
				r.Set(i, j, r.At(i, j)+s*r.At(i, k))
			}
		}
		// Apply the reflector to y.
		var s float64
		for i := k; i < n; i++ {
			s += r.At(i, k) * y[i]
		}
		s = -s / r.At(k, k)
		for i := k; i < n; i++ {
			y[i] += s * r.At(i, k)
		}
		// Store the diagonal of R (the reflectors live below it).
		r.Set(k, k, norm)
	}

	// Back substitution on the p-by-p upper triangle. The diagonal of R now
	// holds -norm values from the loop above; check conditioning.
	if cap(dst) < p {
		dst = make([]float64, p)
	}
	x := dst[:p]
	for k := p - 1; k >= 0; k-- {
		d := -r.At(k, k) // sign flipped by the reflector construction
		if math.Abs(d) < 1e-12 {
			return nil, ErrSingular
		}
		s := y[k]
		for j := k + 1; j < p; j++ {
			s -= r.At(k, j) * x[j]
		}
		x[k] = -s / r.At(k, k)
	}
	return x, nil
}

// EigenScratch holds DominantEigenWith's three iteration vectors. The
// zero value is ready to use; a scratch must not be used concurrently.
type EigenScratch struct {
	v, w, prev []float64
}

func (s *EigenScratch) buffers(n int) (v, w, prev []float64) {
	if cap(s.v) < n {
		s.v = make([]float64, n)
	}
	if cap(s.w) < n {
		s.w = make([]float64, n)
	}
	if cap(s.prev) < n {
		s.prev = make([]float64, n)
	}
	return s.v[:n], s.w[:n], s.prev[:n]
}

// DominantEigenWith computes the unit-norm dominant eigenvector of an
// implicit symmetric linear operator on R^n, given as apply(dst, src)
// writing op*src into dst. This avoids materializing the n-by-n matrix
// when the operator has cheap structure (k-Shape's centroid extraction
// applies Q·AᵀA·Q through the member matrix A directly). Iteration
// starts from a fixed, mildly sloped vector (so it is deterministic and
// unlikely to be orthogonal to the dominant eigenvector) and stops after
// maxIter steps or when successive normalized iterates agree within tol,
// up to sign. The iteration vectors are the caller's, so repeated
// extractions allocate nothing: the returned vector aliases the scratch
// and is only valid until the next call with the same scratch; callers
// that keep it must copy (k-Shape z-normalizes it into a fresh slice
// anyway). The eigenvalue, should a caller want it, is the Rayleigh
// quotient vᵀ·op(v): one more apply, which k-Shape has no use for.
func DominantEigenWith(n int, apply func(dst, src []float64), maxIter int, tol float64, s *EigenScratch) []float64 {
	if n == 0 {
		return nil
	}
	v, w, prev := s.buffers(n)
	for i := range v {
		v[i] = 1 + float64(i%7)/7
	}
	normalize(v)

	for iter := 0; iter < maxIter; iter++ {
		copy(prev, v)
		apply(w, v)
		if normalize(w) == 0 {
			// The operator annihilated v; restart from another direction.
			for i := range w {
				w[i] = float64(1 + (i*31)%13)
			}
			normalize(w)
		}
		copy(v, w)
		if vecDist(v, prev) < tol || vecDistNeg(v, prev) < tol {
			break
		}
	}
	return v
}

func normalize(v []float64) float64 {
	var n float64
	for _, x := range v {
		n += x * x
	}
	n = math.Sqrt(n)
	if n == 0 {
		return 0
	}
	for i := range v {
		v[i] /= n
	}
	return n
}

func vecDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func vecDistNeg(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] + b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
