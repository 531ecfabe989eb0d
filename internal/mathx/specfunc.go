package mathx

import (
	"math"
)

// maxCFIterations bounds the continued-fraction evaluations; the fractions
// converge in a handful of steps for the parameter ranges used by the
// statistical tests, so this is a safety net rather than a tuning knob.
const maxCFIterations = 300

// cfEpsilon is the relative convergence tolerance for continued fractions.
const cfEpsilon = 3e-14

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// for a, b > 0 and x in [0, 1]. It returns NaN outside that domain. The
// implementation follows the classic Lentz continued-fraction expansion
// with the symmetry transform applied when x is past the distribution bulk
// so the fraction converges quickly.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x):
		return math.NaN()
	case a <= 0 || b <= 0:
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// ln of the prefactor x^a (1-x)^b / (a B(a,b)).
	lbeta := logBeta(a, b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) - lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// using the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-30
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxCFIterations; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < cfEpsilon {
			break
		}
	}
	return h
}

// logBeta returns ln B(a, b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b).
func logBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}
