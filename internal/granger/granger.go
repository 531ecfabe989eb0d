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
// designs plus the shared regression workspace (QR factorizations, the
// ADF design and its standard-error solve) that every fit of a Prepare or
// DirectionPrepared call cycles through. The zero value is ready to use. A
// Scratch must not be shared between concurrent goroutines — the
// dependency-extraction fan-out keeps one per worker, indexed by the
// pool's worker id. Returned TestResults never alias the scratch (they
// are scalar-only), so cached results stay valid however the scratch is
// reused afterwards.
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
	// pre-check first-differenced this test's cause X and effect Y.
	DifferencedX, DifferencedY bool
}

// Prepared is one series made ready for every Granger test it joins: the
// stationarity pre-check's verdict and, for each form the series can take
// as an effect, the restricted (own-history) regression at every lag.
// None of that depends on the partner, so the dependency fan-out prepares
// each representative once and each pair runs only its two unrestricted
// fits. A Prepared aliases the series it was made from, which must not
// change; it is immutable and safe to share between goroutines.
type Prepared struct {
	n, maxLag int
	// constant: no test can involve the series.
	constant bool
	// diffed: the pre-check first-differenced the series.
	diffed bool
	// forms[0] is the stationary form: the series or its first
	// differences. forms[1], for a series left as it is, is the series
	// without its first sample: its form beside a differenced partner,
	// aligned on the partner's time base.
	forms [2]form
}

// form is one form of a series and its restricted fit at each lag
// 1..maxLag, which the F-test reads only the residual sum of squares of.
// A constant form, or one too short to test, has no fits; a differenced
// series' forms[1] has no series.
type form struct {
	series     []float64
	constant   bool
	restricted []restrictedFit
}

type restrictedFit struct {
	rss float64
	ok  bool // false: the design was degenerate and the lag is skipped
}

// Prepare runs the stationarity pre-check on x and the restricted fits
// of its forms for tests up to opts.MaxLag. The scratch only holds
// workspace; what it held before never reaches the result.
func Prepare(x []float64, opts Options, s *Scratch) *Prepared {
	p := &Prepared{n: len(x), maxLag: max(opts.MaxLag, 1)}
	if timeseries.IsConstant(x) {
		p.constant = true
		return p
	}
	stat, diffed := stats.EnsureStationaryWith(x, adfLags, &s.stats)
	p.diffed = diffed
	p.forms[0].series = stat
	if !diffed {
		p.forms[1].series = x[1:]
	}
	for i := range p.forms {
		if p.forms[i].series != nil {
			p.forms[i].fit(p.maxLag, s)
		}
	}
	return p
}

// minLength is the shortest effect series a test up to maxLag accepts:
// n - maxOwn observations and 1+maxOwn+maxLag unrestricted parameters
// with residual degrees of freedom to spare.
func minLength(maxLag int) int {
	maxOwn := max(ownLags, maxLag)
	return 2*maxOwn + maxLag + 8
}

// fit fills the form's constant flag and, when a test can use them, its
// restricted fits.
func (f *form) fit(maxLag int, s *Scratch) {
	y := f.series
	f.constant = timeseries.IsConstant(y)
	if f.constant || len(y) < minLength(maxLag) {
		return
	}
	f.restricted = make([]restrictedFit, maxLag)
	for lag := 1; lag <= maxLag; lag++ {
		own := max(ownLags, lag)
		if lag > 1 && own == ownLags {
			// Lags up to ownLags share one restricted model.
			f.restricted[lag-1] = f.restricted[lag-2]
			continue
		}
		_, rss, err := stats.FitOLSWith(y[own:], lagDesign(&s.restricted, nil, y, 0, own), &s.stats)
		f.restricted[lag-1] = restrictedFit{rss: rss, ok: err == nil}
	}
}

// beside returns the form p takes in a test with a partner the pre-check
// did (partnerDiffed) or did not difference: both sides of a test stand
// on one time base.
func (p *Prepared) beside(partnerDiffed bool) *form {
	if partnerDiffed && !p.diffed {
		return &p.forms[1]
	}
	return &p.forms[0]
}

// directed reports whether the cause x Granger-causes the effect y, two
// aligned stationary forms; dx and dy record which series the pre-check
// differenced. A constant form yields a non-significant result, a
// too-short pair an error. The unrestricted lag designs and regression
// workspace come from the caller-owned s; what s held before never
// reaches the result.
func directed(x, y *form, maxLag int, dx, dy bool, s *Scratch) (*TestResult, error) {
	res := &TestResult{PValue: 1, Lag: maxLag, DifferencedX: dx, DifferencedY: dy}
	if x.constant || y.constant {
		return res, nil
	}
	if minLen := minLength(maxLag); len(y.series) < minLen {
		return nil, fmt.Errorf("%w: have %d samples, need >= %d", ErrSeriesTooShort, len(y.series), minLen)
	}

	for lag := 1; lag <= maxLag; lag++ {
		restricted := y.restricted[lag-1]
		if !restricted.ok {
			continue
		}
		f, p, err := testAtLag(x.series, y.series, restricted.rss, lag, max(ownLags, lag), s)
		if err != nil {
			// Degenerate designs at this lag (e.g. near-collinear
			// histories) are skipped, not fatal: other lags may work.
			continue
		}
		if res.PValue == 1 && res.F == 0 || p < res.PValue {
			res.F, res.PValue, res.Lag = f, p, lag
		}
	}
	res.Significant = res.PValue < Alpha
	return res, nil
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
// ownLags autoregressive lags of y (ownLags >= crossLag), given the
// restricted fit's residual sum of squares rssR from y's preparation:
// only the unrestricted regression is fitted here.
func testAtLag(x, y []float64, rssR float64, crossLag, ownLags int, s *Scratch) (f, p float64, err error) {
	resp := y[ownLags:]
	_, rssU, err := stats.FitOLSWith(resp, lagDesign(&s.unrestrict, x, y, crossLag, ownLags), &s.stats)
	if err != nil {
		return 0, 0, err
	}

	ft, err := stats.FTestNested(rssR, rssU, 1+ownLags, 1+ownLags+crossLag, len(resp))
	if err != nil {
		return 0, 0, err
	}
	return ft.F, ft.PValue, nil
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

// Direction runs the test in both directions and classifies the result:
// it prepares both series and runs DirectionPrepared. It returns the
// per-direction test results alongside the classification.
func Direction(x, y []float64, opts Options) (Causality, *TestResult, *TestResult, error) {
	var s Scratch
	return DirectionPrepared(Prepare(x, opts, &s), Prepare(y, opts, &s), &s)
}

// DirectionPrepared tests two prepared series of equal length, prepared
// for the same MaxLag, in both directions on one stationary pair: a
// series the pre-check differenced makes its partner drop its first
// sample. Constants and too-short series yield a non-significant result
// or an error rather than a spurious edge. Each direction fits only its
// unrestricted regressions, into the caller-owned scratch.
func DirectionPrepared(x, y *Prepared, s *Scratch) (Causality, *TestResult, *TestResult, error) {
	if x.n != y.n {
		return 0, nil, nil, lengthMismatch(x.n, y.n)
	}
	if x.maxLag != y.maxLag {
		return 0, nil, nil, fmt.Errorf("granger: series prepared for MaxLag %d and %d", x.maxLag, y.maxLag)
	}
	maxLag := x.maxLag

	// A constant series can neither cause nor be caused on this sample.
	if x.constant || y.constant {
		return None, &TestResult{PValue: 1, Lag: maxLag}, &TestResult{PValue: 1, Lag: maxLag}, nil
	}

	fx, fy := x.beside(y.diffed), y.beside(x.diffed)
	xy, err := directed(fx, fy, maxLag, x.diffed, y.diffed, s)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("granger: x->y: %w", err)
	}
	yx, err := directed(fy, fx, maxLag, y.diffed, x.diffed, s)
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

func lengthMismatch(nx, ny int) error {
	return fmt.Errorf("granger: length mismatch %d vs %d", nx, ny)
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
