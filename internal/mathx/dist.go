package mathx

import "math"

// FSurvival returns P(X > f) for the F distribution with (d1, d2) degrees
// of freedom, computed in a form that stays accurate for large f where
// one minus the CDF would cancel.
func FSurvival(f, d1, d2 float64) float64 {
	if d1 <= 0 || d2 <= 0 || math.IsNaN(f) {
		return math.NaN()
	}
	if f <= 0 {
		return 1
	}
	x := d2 / (d2 + d1*f)
	return RegIncBeta(d2/2, d1/2, x)
}
