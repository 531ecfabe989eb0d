package mathx

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// matrixFromRows builds a matrix from equal-length rows, copying the data.
func matrixFromRows(rows [][]float64) *Matrix {
	m := new(Matrix).Resize(len(rows), len(rows[0]))
	for i, row := range rows {
		copy(m.data[i*m.cols:(i+1)*m.cols], row)
	}
	return m
}

func TestMatrixBasicOps(t *testing.T) {
	m := matrixFromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
	})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %g, want 6", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Errorf("Set/At round trip failed")
	}
	// Resize reuses the backing array when it is large enough.
	data := &m.data[0]
	if m.Resize(3, 1); m.Rows() != 3 || m.Cols() != 1 || &m.data[0] != data {
		t.Errorf("Resize(3,1) gave %dx%d, reallocated %v", m.Rows(), m.Cols(), &m.data[0] != data)
	}
}

func TestMatrixTranspose(t *testing.T) {
	m := matrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	tr := m.TInto(new(Matrix))
	if tr.Rows() != 2 || tr.Cols() != 3 {
		t.Fatalf("transpose shape = %dx%d, want 2x3", tr.Rows(), tr.Cols())
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatrixMul(t *testing.T) {
	a := matrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := matrixFromRows([][]float64{{5, 6}, {7, 8}})
	c := a.MulInto(new(Matrix), b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul(%d,%d) = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatrixMulVec(t *testing.T) {
	a := matrixFromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	got := a.MulVecInto(make([]float64, 2), []float64{1, 2, 3})
	want := []float64{7, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MulVec[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestSolveLeastSquaresExact(t *testing.T) {
	// Square well-conditioned system has an exact solution.
	a := matrixFromRows([][]float64{
		{2, 1},
		{1, 3},
	})
	x, err := SolveLeastSquaresInto(nil, a, []float64{5, 10}, new(LSScratch))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestSolveLeastSquaresRecoversPlantedCoefficients(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 80, 4
		truth := make([]float64, p)
		for i := range truth {
			truth[i] = rng.NormFloat64() * 3
		}
		a := new(Matrix).Resize(n, p)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < p; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				s += v * truth[j]
			}
			y[i] = s // noiseless: LS must recover exactly
		}
		x, err := SolveLeastSquaresInto(nil, a, y, new(LSScratch))
		if err != nil {
			return false
		}
		for j := range truth {
			if !almostEqual(x[j], truth[j], 1e-7*(1+math.Abs(truth[j]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSolveLeastSquaresMinimizesResidual(t *testing.T) {
	// Overdetermined noisy system: the LS residual must not beat a small
	// perturbation of the solution.
	rng := rand.New(rand.NewSource(11))
	n, p := 50, 3
	a := new(Matrix).Resize(n, p)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		y[i] = rng.NormFloat64()
	}
	x, err := SolveLeastSquaresInto(nil, a, y, new(LSScratch))
	if err != nil {
		t.Fatal(err)
	}
	rss := func(sol []float64) float64 {
		pred := a.MulVecInto(make([]float64, n), sol)
		var s float64
		for i := range pred {
			d := y[i] - pred[i]
			s += d * d
		}
		return s
	}
	base := rss(x)
	for j := 0; j < p; j++ {
		pert := append([]float64(nil), x...)
		pert[j] += 0.01
		if rss(pert) < base-1e-12 {
			t.Fatalf("perturbing coefficient %d improved RSS: %g < %g", j, rss(pert), base)
		}
	}
}

func TestSolveLeastSquaresSingular(t *testing.T) {
	// Second column is an exact copy of the first.
	a := matrixFromRows([][]float64{
		{1, 1},
		{2, 2},
		{3, 3},
	})
	if _, err := SolveLeastSquaresInto(nil, a, []float64{1, 2, 3}, new(LSScratch)); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLeastSquaresShapeErrors(t *testing.T) {
	a := new(Matrix).Resize(2, 3)
	if _, err := SolveLeastSquaresInto(nil, a, []float64{1, 2}, new(LSScratch)); err == nil {
		t.Error("expected error for underdetermined system")
	}
	b := new(Matrix).Resize(3, 1)
	if _, err := SolveLeastSquaresInto(nil, b, []float64{1, 2}, new(LSScratch)); err == nil {
		t.Error("expected error for row/response mismatch")
	}
}

// dominantEigenOf runs the eigensolver on an explicit symmetric matrix
// and returns the vector with its Rayleigh quotient vᵀSv (v has unit
// norm).
func dominantEigenOf(s *Matrix, maxIter int, tol float64) ([]float64, float64) {
	apply := func(dst, src []float64) { s.MulVecInto(dst, src) }
	v := DominantEigenWith(s.Rows(), apply, maxIter, tol, new(EigenScratch))
	var lambda float64
	for i, sv := range s.MulVecInto(make([]float64, s.Rows()), v) {
		lambda += v[i] * sv
	}
	return v, lambda
}

func TestPowerIterationDiagonal(t *testing.T) {
	s := matrixFromRows([][]float64{
		{5, 0, 0},
		{0, 2, 0},
		{0, 0, 1},
	})
	v, lambda := dominantEigenOf(s, 500, 1e-12)
	if !almostEqual(lambda, 5, 1e-6) {
		t.Fatalf("eigenvalue = %g, want 5", lambda)
	}
	if !almostEqual(math.Abs(v[0]), 1, 1e-5) || math.Abs(v[1]) > 1e-4 || math.Abs(v[2]) > 1e-4 {
		t.Fatalf("eigenvector = %v, want +/-e1", v)
	}
}

func TestPowerIterationSymmetric(t *testing.T) {
	// Known symmetric matrix with dominant eigenpair lambda=3, v=(1,1)/sqrt2.
	s := matrixFromRows([][]float64{
		{2, 1},
		{1, 2},
	})
	v, lambda := dominantEigenOf(s, 500, 1e-12)
	if !almostEqual(lambda, 3, 1e-8) {
		t.Fatalf("eigenvalue = %g, want 3", lambda)
	}
	if !almostEqual(math.Abs(v[0]), 1/math.Sqrt2, 1e-6) || !almostEqual(math.Abs(v[1]), 1/math.Sqrt2, 1e-6) {
		t.Fatalf("eigenvector = %v, want (1,1)/sqrt2 up to sign", v)
	}
}

func TestPowerIterationEmpty(t *testing.T) {
	v, lambda := dominantEigenOf(new(Matrix).Resize(0, 0), 10, 1e-9)
	if v != nil || lambda != 0 {
		t.Errorf("empty matrix: got %v, %g", v, lambda)
	}
}
