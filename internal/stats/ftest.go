package stats

import (
	"fmt"
	"math"

	"github.com/sieve-microservices/sieve/internal/mathx"
)

// FTestResult is the outcome of a nested-model F-test.
type FTestResult struct {
	// F is the test statistic.
	F float64
	// PValue is P(F_dist >= F) under the null that the restricted model
	// suffices.
	PValue float64
	// DF1 and DF2 are the numerator and denominator degrees of freedom.
	DF1, DF2 int
}

// FTestNested compares a restricted model (rssR, pR parameters) against an
// unrestricted model that nests it (rssU, pU parameters, pU > pR), both
// fitted on n observations:
//
//	F = ((rssR - rssU)/(pU - pR)) / (rssU/(n - pU))
//
// The null hypothesis is that the extra pU-pR parameters contribute
// nothing. This is the comparison Sieve uses to test whether the lagged
// history of metric X improves the prediction of metric Y (§3.3).
func FTestNested(rssR, rssU float64, pR, pU, n int) (*FTestResult, error) {
	if pU <= pR {
		return nil, fmt.Errorf("stats: unrestricted model must add parameters (pR=%d pU=%d)", pR, pU)
	}
	if n <= pU {
		return nil, fmt.Errorf("%w: n=%d pU=%d", ErrTooFewObservations, n, pU)
	}
	if rssR < 0 || rssU < 0 {
		return nil, fmt.Errorf("stats: negative RSS (rssR=%g rssU=%g)", rssR, rssU)
	}
	df1 := pU - pR
	df2 := n - pU

	var f float64
	switch {
	case rssU == 0 && rssR == rssU:
		// Both models fit perfectly; the extra parameters add nothing.
		f = 0
	case rssU == 0:
		f = math.Inf(1)
	default:
		f = ((rssR - rssU) / float64(df1)) / (rssU / float64(df2))
	}
	if f < 0 {
		// Numerical jitter: the unrestricted fit can come out a hair worse.
		f = 0
	}

	var p float64
	if math.IsInf(f, 1) {
		p = 0
	} else {
		p = mathx.FSurvival(f, float64(df1), float64(df2))
	}
	return &FTestResult{F: f, PValue: p, DF1: df1, DF2: df2}, nil
}
