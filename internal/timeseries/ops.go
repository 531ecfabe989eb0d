package timeseries

import (
	"math"
)

// LowVarianceThreshold is the variance cutoff below which the paper
// discards a metric as unvarying (§3.2: var <= 0.002, measured on the
// z-scale-free raw values).
const LowVarianceThreshold = 0.002

// Mean returns the arithmetic mean of v, or NaN for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v, or NaN for an empty
// slice. The paper's unvarying-metric filter compares this quantity to
// LowVarianceThreshold.
func Variance(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// StdDev returns the population standard deviation of v.
func StdDev(v []float64) float64 {
	return math.Sqrt(Variance(v))
}

// ZNormalize returns (v - mean)/std as a new slice. A constant series
// (zero standard deviation) normalizes to all zeros, matching the k-Shape
// convention that such series carry no shape information.
func ZNormalize(v []float64) []float64 {
	out := make([]float64, len(v))
	if len(v) == 0 {
		return out
	}
	m := Mean(v)
	sd := StdDev(v)
	if sd == 0 || math.IsNaN(sd) {
		return out
	}
	for i, x := range v {
		out[i] = (x - m) / sd
	}
	return out
}

// Diff returns the first difference v[i+1]-v[i] as a new slice of length
// len(v)-1. It returns an empty slice when len(v) < 2. The paper applies
// this to non-stationary series (e.g. monotonically increasing counters)
// before Granger testing.
func Diff(v []float64) []float64 {
	if len(v) < 2 {
		return []float64{}
	}
	out := make([]float64, len(v)-1)
	for i := range out {
		out[i] = v[i+1] - v[i]
	}
	return out
}

// IsConstant reports whether every sample equals the first one.
func IsConstant(v []float64) bool {
	for i := 1; i < len(v); i++ {
		if v[i] != v[0] {
			return false
		}
	}
	return true
}

// HasNaN reports whether any sample is NaN.
func HasNaN(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// MinMax returns the smallest and largest sample. It returns (NaN, NaN)
// for an empty slice.
func MinMax(v []float64) (min, max float64) {
	if len(v) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = v[0], v[0]
	for _, x := range v[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Percentile returns the p-th percentile (0..100) of v using linear
// interpolation between closest ranks. It returns NaN for an empty slice.
// The input is not modified.
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	sorted := append([]float64(nil), v...)
	insertionSort(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// insertionSort is used instead of sort.Float64s to keep NaNs stable at
// their positions deterministically for small slices; Percentile inputs in
// Sieve are latency windows of a few hundred samples where this is fine.
func insertionSort(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && less(v[j], v[j-1]); j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func less(a, b float64) bool {
	if math.IsNaN(a) {
		return false
	}
	if math.IsNaN(b) {
		return true
	}
	return a < b
}
