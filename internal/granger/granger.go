package granger

import (
	"errors"
	"fmt"
	"math"

	"github.com/sieve-microservices/sieve/internal/mathx"
	"github.com/sieve-microservices/sieve/internal/stats"
	"github.com/sieve-microservices/sieve/internal/timeseries"
)

// Scratch pools one worker's Granger buffers: the two reusable flat lag
// designs plus the shared regression workspace (QR factorizations,
// normal-equation solves, ADF design) that every fit in a TestWith run
// cycles through. The zero value is ready to use. A Scratch must not be
// shared between concurrent goroutines — the dependency-extraction
// fan-out keeps one per worker, indexed by the pool's worker id. Returned
// TestResults never alias the scratch (they are scalar-only), so cached
// results stay valid however the scratch is reused afterwards.
type Scratch struct {
	stats      stats.Scratch
	restricted mathx.Matrix
	unrestrict mathx.Matrix
}

// Alpha is the significance level for rejecting the null hypothesis "X
// does not Granger-cause Y".
const Alpha = 0.05

// ErrSeriesTooShort is returned when the series cannot support the
// requested lag order.
var ErrSeriesTooShort = errors.New("granger: series too short for requested lag")

// ownLags is the autoregressive order of y's own history in both models
// (the effective order is at least the cross lag under test). Using more
// own-history lags than cross lags hardens the test against false
// reverse causality: when the underlying load has second-order dynamics
// (ramps), a single own lag cannot capture them and the reverse
// direction spuriously "helps" by echoing the driver's past.
const ownLags = 3

// adfLags is the augmentation order of the stationarity pre-check: a
// plain Dickey-Fuller regression, no lagged differences.
const adfLags = 0

// Options configures a causality test.
type Options struct {
	// MaxLag is the largest cross lag order (in samples) to test; each
	// lag in 1..MaxLag is tried and the most predictive one is kept. With
	// the paper's 500 ms grid and its conservative 500 ms delay bound
	// this is 1, the default when 0.
	MaxLag int
}

// TestResult reports one directed Granger test X -> Y.
type TestResult struct {
	// F and PValue come from the nested-model F-test at the chosen lag.
	F, PValue float64
	// Lag is the lag order (samples) that maximized significance.
	Lag int
	// Significant reports PValue < alpha.
	Significant bool
	// DifferencedX and DifferencedY report whether the stationarity
	// pre-check first-differenced an input.
	DifferencedX, DifferencedY bool
}

// TestWith reports whether x Granger-causes y. Both series must have
// equal length; constants and too-short series yield a non-significant
// result rather than an error when they cannot carry causal signal. Lag
// designs and regression workspace come from the caller-owned s, so a
// steady-state test performs O(1) small allocations per pair instead of
// O(lags·rows); what s held before never reaches the result.
func TestWith(x, y []float64, opts Options, s *Scratch) (*TestResult, error) {
	maxLag := opts.MaxLag
	if maxLag <= 0 {
		maxLag = 1
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("granger: length mismatch %d vs %d", len(x), len(y))
	}

	res := &TestResult{PValue: 1, Lag: maxLag}

	// A constant series can neither cause nor be caused on this sample.
	if timeseries.IsConstant(x) || timeseries.IsConstant(y) {
		return res, nil
	}

	x, y, res.DifferencedX, res.DifferencedY = makeStationaryPair(x, y, s)
	if timeseries.IsConstant(x) || timeseries.IsConstant(y) {
		return res, nil
	}

	// Need n - maxL observations and 1+ownLags+crossLag unrestricted
	// parameters with residual degrees of freedom to spare.
	maxOwn := max(ownLags, maxLag)
	minLen := 2*maxOwn + maxLag + 8
	if len(y) < minLen {
		return nil, fmt.Errorf("%w: have %d samples, need >= %d", ErrSeriesTooShort, len(y), minLen)
	}

	best := res
	for lag := 1; lag <= maxLag; lag++ {
		f, p, err := testAtLag(x, y, lag, max(ownLags, lag), s)
		if err != nil {
			// Degenerate designs at this lag (e.g. near-collinear
			// histories) are skipped, not fatal: other lags may work.
			continue
		}
		if best.PValue == 1 && best.F == 0 || p < best.PValue {
			best = &TestResult{
				F:            f,
				PValue:       p,
				Lag:          lag,
				DifferencedX: res.DifferencedX,
				DifferencedY: res.DifferencedY,
			}
		}
	}
	best.Significant = best.PValue < Alpha
	return best, nil
}

// lagDesign writes the intercept-plus-lags design directly into the flat
// reusable matrix dst: column 0 is the constant 1, columns 1..ownLags are
// y shifted by 1..ownLags samples, and columns ownLags+1..ownLags+crossLag
// are x shifted by 1..crossLag (crossLag 0 gives the restricted model).
// No intermediate lag columns are materialized.
func lagDesign(dst *mathx.Matrix, x, y []float64, crossLag, ownLags int) *mathx.Matrix {
	rows := len(y) - ownLags
	dst.Resize(rows, 1+ownLags+crossLag)
	for r := 0; r < rows; r++ {
		dst.Set(r, 0, 1)
		for i := 1; i <= ownLags; i++ {
			dst.Set(r, i, y[ownLags-i+r])
		}
		for i := 1; i <= crossLag; i++ {
			dst.Set(r, ownLags+i, x[ownLags-i+r])
		}
	}
	return dst
}

// testAtLag runs the nested F-test with crossLag lags of x added to
// ownLags autoregressive lags of y (ownLags >= crossLag). The F-test
// consumes only the fits' RSS/P/N scalars, so both regressions can share
// the scratch sequentially.
func testAtLag(x, y []float64, crossLag, ownLags int, s *Scratch) (f, p float64, err error) {
	resp := y[ownLags:]

	restricted, err := stats.FitOLSWith(resp, lagDesign(&s.restricted, x, y, 0, ownLags), &s.stats)
	if err != nil {
		return 0, 0, err
	}
	unrestricted, err := stats.FitOLSWith(resp, lagDesign(&s.unrestrict, x, y, crossLag, ownLags), &s.stats)
	if err != nil {
		return 0, 0, err
	}

	ft, err := stats.CompareOLS(restricted, unrestricted)
	if err != nil {
		return 0, 0, err
	}
	return ft.F, ft.PValue, nil
}

// makeStationaryPair differences whichever series fails the ADF test and
// trims the other so both stay aligned on the same time base (differencing
// drops the first sample).
func makeStationaryPair(x, y []float64, s *Scratch) (outX, outY []float64, dx, dy bool) {
	outX, dx = stats.EnsureStationaryWith(x, adfLags, &s.stats)
	outY, dy = stats.EnsureStationaryWith(y, adfLags, &s.stats)
	switch {
	case dx && !dy:
		outY = y[1:]
	case dy && !dx:
		outX = x[1:]
	}
	return outX, outY, dx, dy
}

// Causality classifies the relationship between two metrics.
type Causality int

// Causality values. Bidirectional relationships indicate a hidden common
// driver (§3.3) and are filtered out of the dependency graph.
const (
	// None: neither direction is significant.
	None Causality = iota + 1
	// XCausesY: only X -> Y is significant.
	XCausesY
	// YCausesX: only Y -> X is significant.
	YCausesX
	// Bidirectional: both directions are significant (spurious).
	Bidirectional
)

// String returns a human-readable name.
func (c Causality) String() string {
	switch c {
	case None:
		return "none"
	case XCausesY:
		return "x->y"
	case YCausesX:
		return "y->x"
	case Bidirectional:
		return "bidirectional"
	default:
		return fmt.Sprintf("Causality(%d)", int(c))
	}
}

// Direction runs the test in both directions and classifies the result.
// It returns the per-direction test results alongside the classification.
func Direction(x, y []float64, opts Options) (Causality, *TestResult, *TestResult, error) {
	var s Scratch
	return DirectionWith(x, y, opts, &s)
}

// DirectionWith is Direction with caller-owned scratch shared by both
// directed tests.
func DirectionWith(x, y []float64, opts Options, s *Scratch) (Causality, *TestResult, *TestResult, error) {
	xy, err := TestWith(x, y, opts, s)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("granger: x->y: %w", err)
	}
	yx, err := TestWith(y, x, opts, s)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("granger: y->x: %w", err)
	}
	switch {
	case xy.Significant && yx.Significant:
		return Bidirectional, xy, yx, nil
	case xy.Significant:
		return XCausesY, xy, yx, nil
	case yx.Significant:
		return YCausesX, xy, yx, nil
	default:
		return None, xy, yx, nil
	}
}

// LagSamples converts a wall-clock delay bound into a lag order on a
// sampling grid, rounding up and enforcing a minimum of one sample. Sieve
// uses a conservative 500 ms delay with a 500 ms grid, i.e. lag 1.
func LagSamples(delayMS, stepMS int64) int {
	if stepMS <= 0 || delayMS <= 0 {
		return 1
	}
	l := int(math.Ceil(float64(delayMS) / float64(stepMS)))
	if l < 1 {
		l = 1
	}
	return l
}
