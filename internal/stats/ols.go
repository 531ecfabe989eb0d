// Package stats implements the regression and hypothesis-testing machinery
// Sieve's dependency extraction is built on: ordinary least squares with
// the diagnostics needed for nested-model F-tests, and the Augmented
// Dickey-Fuller unit-root test used to detect non-stationary metrics.
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

// OLS holds a fitted ordinary-least-squares regression.
type OLS struct {
	// Coef are the fitted coefficients, one per design column.
	Coef []float64
	// Residuals are y - X*Coef.
	Residuals []float64
	// RSS is the residual sum of squares.
	RSS float64
	// N is the number of observations, P the number of design columns.
	N, P int
	// StdErr are the coefficient standard errors (sqrt of the diagonal of
	// sigma^2 (X'X)^-1).
	StdErr []float64
	// sigma2 is the residual variance estimate RSS/(N-P).
	sigma2 float64
}

// Scratch pools the regression workspace reused across FitOLSWith and
// ADFWith calls: QR factorizations, the prediction vector, the normal
// matrix of the standard-error solves, and the ADF design. The zero
// value is ready to use. A Scratch must not be shared between concurrent
// goroutines; fan-outs keep one per worker. Only the workspace is
// pooled — every fitted model's Coef/Residuals/StdErr slices are fresh,
// so results never alias the scratch and stay valid across later calls.
type Scratch struct {
	ls    mathx.LSScratch // QR workspace of the main solve
	lsStd mathx.LSScratch // QR workspace of the p-by-p std-err solves
	pred  []float64
	xt    mathx.Matrix
	xtx   mathx.Matrix
	e     []float64
	col   []float64

	// ADF buffers (see ADFWith).
	resp   []float64
	design mathx.Matrix
}

// FitOLSWith fits y ~ X by least squares. X must have len(y) rows and at
// least one column, and there must be at least one residual degree of
// freedom (N > P). The returned model includes coefficient standard
// errors, which the ADF test needs for its t-statistic. The QR and
// normal-equation intermediates come from the caller-owned s, so a
// steady-state fit performs O(1) small allocations (the returned model
// and its slices) regardless of design size.
func FitOLSWith(y []float64, x *mathx.Matrix, s *Scratch) (*OLS, error) {
	n, p := x.Rows(), x.Cols()
	if n != len(y) {
		return nil, fmt.Errorf("stats: %d observations but %d design rows", len(y), n)
	}
	if p == 0 {
		return nil, errors.New("stats: empty design matrix")
	}
	if n <= p {
		return nil, fmt.Errorf("%w: n=%d p=%d", ErrTooFewObservations, n, p)
	}

	coef, err := mathx.SolveLeastSquaresInto(nil, x, y, &s.ls)
	if err != nil {
		return nil, fmt.Errorf("stats: solving normal equations: %w", err)
	}

	if cap(s.pred) < n {
		s.pred = make([]float64, n)
	}
	pred := x.MulVecInto(s.pred[:n], coef)
	res := make([]float64, n)
	var rss float64
	for i := range y {
		res[i] = y[i] - pred[i]
		rss += res[i] * res[i]
	}

	m := &OLS{
		Coef:      coef,
		Residuals: res,
		RSS:       rss,
		N:         n,
		P:         p,
		sigma2:    rss / float64(n-p),
	}
	m.StdErr, err = coefStdErr(x, m.sigma2, s)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// TStat returns the t-statistic Coef[j]/StdErr[j].
func (m *OLS) TStat(j int) float64 {
	if j < 0 || j >= len(m.Coef) {
		return math.NaN()
	}
	if m.StdErr[j] == 0 {
		return math.Inf(sign(m.Coef[j]))
	}
	return m.Coef[j] / m.StdErr[j]
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// coefStdErr computes sqrt(sigma2 * diag((X'X)^-1)) by solving X'X e_j for
// each basis vector with the QR solver. Designs here are small (tens of
// columns), so the O(p^4) cost is irrelevant. The transpose, normal
// matrix, basis vector, and solve workspace all come from the scratch;
// only the returned slice is fresh.
func coefStdErr(x *mathx.Matrix, sigma2 float64, s *Scratch) ([]float64, error) {
	p := x.Cols()
	xt := x.TInto(&s.xt)
	xtx := xt.MulInto(&s.xtx, x)
	if cap(s.e) < p {
		s.e = make([]float64, p)
	}
	e := s.e[:p]
	out := make([]float64, p)
	for j := 0; j < p; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := mathx.SolveLeastSquaresInto(s.col, xtx, e, &s.lsStd)
		if err != nil {
			return nil, fmt.Errorf("stats: X'X singular computing std errors: %w", err)
		}
		s.col = col
		v := col[j] * sigma2
		if v < 0 {
			v = 0
		}
		out[j] = math.Sqrt(v)
	}
	return out, nil
}
