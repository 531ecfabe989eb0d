// Package stats implements the regression and hypothesis-testing machinery
// Sieve's dependency extraction is built on: ordinary least squares that
// returns the coefficients and residual sum of squares, the nested-model
// F-test over two such sums, and the Augmented Dickey-Fuller unit-root
// test used to detect non-stationary metrics, which computes the one
// standard error it reads.
package stats

import (
	"errors"
	"fmt"
	"math"

	"github.com/sieve-microservices/sieve/internal/mathx"
)

// ErrTooFewObservations is returned when a model has no residual degrees
// of freedom.
var ErrTooFewObservations = errors.New("stats: too few observations for the requested model")

// Scratch pools the regression workspace reused across FitOLSWith and
// ADFWith calls: QR factorizations, the prediction vector, the normal
// matrix of the ADF's standard-error solve, and the ADF design. The zero
// value is ready to use. A Scratch must not be shared between concurrent
// goroutines; fan-outs keep one per worker. Only the workspace is
// pooled — every returned coefficient slice is fresh, so results never
// alias the scratch and stay valid across later calls.
type Scratch struct {
	ls    mathx.LSScratch // QR workspace of the main solve
	lsStd mathx.LSScratch // QR workspace of the p-by-p std-err solve
	pred  []float64
	xt    mathx.Matrix
	xtx   mathx.Matrix
	e     []float64
	col   []float64

	// ADF buffers (see ADFWith).
	resp   []float64
	design mathx.Matrix
}

// FitOLSWith fits y ~ X by least squares and returns the coefficients,
// one per design column, and the residual sum of squares. X must have
// len(y) rows and at least one column, and there must be at least one
// residual degree of freedom (N > P). The QR intermediates come from the
// caller-owned s, so a steady-state fit performs O(1) small allocations
// (the returned coefficients) regardless of design size.
func FitOLSWith(y []float64, x *mathx.Matrix, s *Scratch) (coef []float64, rss float64, err error) {
	n, p := x.Rows(), x.Cols()
	if n != len(y) {
		return nil, 0, fmt.Errorf("stats: %d observations but %d design rows", len(y), n)
	}
	if p == 0 {
		return nil, 0, errors.New("stats: empty design matrix")
	}
	if n <= p {
		return nil, 0, fmt.Errorf("%w: n=%d p=%d", ErrTooFewObservations, n, p)
	}

	coef, err = mathx.SolveLeastSquaresInto(nil, x, y, &s.ls)
	if err != nil {
		return nil, 0, fmt.Errorf("stats: solving normal equations: %w", err)
	}

	if cap(s.pred) < n {
		s.pred = make([]float64, n)
	}
	pred := x.MulVecInto(s.pred[:n], coef)
	for i := range y {
		r := y[i] - pred[i]
		rss += r * r
	}
	return coef, rss, nil
}

// standardError computes coefficient j's standard error sqrt(sigma2 ·
// ((X'X)^-1)_jj), sigma2 being the residual variance RSS/(N-P), by
// solving X'X·e_j with the QR solver. Designs here are small (a few
// columns), so forming X'X is cheap. The transpose, normal matrix, basis
// vector, and solve workspace all come from the scratch.
func standardError(x *mathx.Matrix, j int, sigma2 float64, s *Scratch) (float64, error) {
	p := x.Cols()
	xt := x.TInto(&s.xt)
	xtx := xt.MulInto(&s.xtx, x)
	if cap(s.e) < p {
		s.e = make([]float64, p)
	}
	e := s.e[:p]
	for i := range e {
		e[i] = 0
	}
	e[j] = 1
	col, err := mathx.SolveLeastSquaresInto(s.col, xtx, e, &s.lsStd)
	if err != nil {
		return 0, fmt.Errorf("stats: X'X singular computing a standard error: %w", err)
	}
	s.col = col
	v := col[j] * sigma2
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v), nil
}
