package stats

import (
	"fmt"
	"math"

	"github.com/sieve-microservices/sieve/internal/timeseries"
)

// ADFResult is the outcome of an Augmented Dickey-Fuller unit-root test.
type ADFResult struct {
	// Stat is the Dickey-Fuller t-statistic on the lagged level term.
	Stat float64
	// Lags is the number of augmentation lags used.
	Lags int
	// CriticalValues holds the MacKinnon critical values at 1%, 5% and
	// 10% for the constant-only regression.
	CriticalValues [3]float64
	// Stationary reports whether the unit-root null was rejected at the
	// 5% level (Stat < CriticalValues[1]).
	Stationary bool
}

// macKinnonConstOnly are asymptotic critical values for the ADF test with
// a constant and no trend (MacKinnon 2010), at 1%, 5% and 10%.
var macKinnonConstOnly = [3]float64{-3.43, -2.86, -2.57}

// ADFWith runs the Augmented Dickey-Fuller test with a constant (no
// trend):
//
//	Δy_t = α + γ·y_{t-1} + Σ_{i=1..lags} δ_i·Δy_{t-i} + ε_t
//
// The null hypothesis is γ = 0 (unit root, non-stationary); it is rejected
// when the t-statistic on γ is below the 5% MacKinnon critical value.
// Sieve first-differences series that fail this test before Granger
// analysis (§3.3), with lags = 0: the plain Dickey-Fuller regression.
// lags must not be negative. The lag design is written directly into the
// caller-owned scratch's reusable flat matrix and the regression runs
// through FitOLSWith, so a steady-state test performs O(1) allocations.
// Of the fit's diagnostics only γ's standard error is computed; a zero
// one gives a t-statistic of ±Inf.
func ADFWith(y []float64, lags int, s *Scratch) (*ADFResult, error) {
	if lags < 0 {
		return nil, fmt.Errorf("stats: ADF with %d lags: the lag count must not be negative", lags)
	}
	n := len(y)
	// Need rows = n-1-lags observations and 2+lags parameters with at
	// least a few residual degrees of freedom.
	rows := n - 1 - lags
	params := 2 + lags
	if rows < params+3 {
		return nil, fmt.Errorf("%w: ADF with %d lags needs more than %d samples", ErrTooFewObservations, lags, n)
	}
	if timeseries.IsConstant(y) {
		// A constant series is trivially stationary; the regression would
		// be singular, so answer directly.
		return &ADFResult{
			Stat:           math.Inf(-1),
			Lags:           lags,
			CriticalValues: macKinnonConstOnly,
			Stationary:     true,
		}, nil
	}

	dy := timeseries.Diff(y) // dy[t] = y[t+1]-y[t], length n-1

	// Response Δy_t and design [1, y_{t-1}, Δy_{t-1}..Δy_{t-lags}] for
	// t = lags..n-2 (index into dy), filled row by row.
	if cap(s.resp) < rows {
		s.resp = make([]float64, rows)
	}
	resp := s.resp[:rows]
	design := s.design.Resize(rows, params)
	for r := 0; r < rows; r++ {
		t := lags + r
		resp[r] = dy[t]
		design.Set(r, 0, 1)
		design.Set(r, 1, y[t])
		for i := 1; i <= lags; i++ {
			design.Set(r, 1+i, dy[t-i])
		}
	}

	coef, rss, err := FitOLSWith(resp, design, s)
	if err != nil {
		return nil, fmt.Errorf("stats: ADF regression: %w", err)
	}
	// Column 0 is the intercept; column 1 is γ on y_{t-1}.
	se, err := standardError(design, 1, rss/float64(rows-params), s)
	if err != nil {
		return nil, fmt.Errorf("stats: ADF regression: %w", err)
	}
	var stat float64
	switch {
	case se != 0:
		stat = coef[1] / se
	case coef[1] < 0:
		stat = math.Inf(-1)
	default:
		stat = math.Inf(1)
	}
	return &ADFResult{
		Stat:           stat,
		Lags:           lags,
		CriticalValues: macKinnonConstOnly,
		Stationary:     stat < macKinnonConstOnly[1],
	}, nil
}

// EnsureStationaryWith returns a series suitable for Granger testing: the
// input itself when the ADF test (run through the caller-owned regression
// scratch) deems it stationary, otherwise its first difference (padding
// is not applied; the result is one sample shorter). The returned bool
// reports whether differencing was applied. Series too short to test,
// and a negative lag count, return the input unchanged.
func EnsureStationaryWith(y []float64, lags int, s *Scratch) ([]float64, bool) {
	res, err := ADFWith(y, lags, s)
	if err != nil || res.Stationary {
		return y, false
	}
	return timeseries.Diff(y), true
}
