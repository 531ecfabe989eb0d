// Package timeseries provides the time-series representation and the
// preprocessing operations Sieve applies before clustering and causality
// testing: bucketed resampling onto a regular grid (the paper discretizes
// at 500 ms), cubic-spline reconstruction of gaps caused by scrape timeouts
// or lost packets, z-normalization, and first differencing for
// non-stationary series.
package timeseries

import (
	"fmt"
	"math"
	"time"
)

// DefaultStep is the discretization interval used throughout the paper
// (500 ms instead of the 2 s used in the original k-Shape work, to improve
// cross-component matching accuracy).
const DefaultStep = 500 * time.Millisecond

// Point is a single raw observation of a metric.
type Point struct {
	// T is the observation timestamp in milliseconds since the epoch of
	// the capture (simulation time in this reproduction).
	T int64
	// V is the observed value.
	V float64
}

// Series is a raw, possibly irregular metric recording.
type Series struct {
	// Name identifies the metric, e.g. "web.http_requests_mean".
	Name string
	// Points are the observations; Resample buckets them by timestamp,
	// so their order does not matter.
	Points []Point
}

// Len returns the number of raw observations.
func (s *Series) Len() int { return len(s.Points) }

// Regular is a metric sampled on a fixed grid: value i was observed at
// Start + i*Step milliseconds.
type Regular struct {
	// Name identifies the metric.
	Name string
	// Start is the timestamp of Values[0] in milliseconds.
	Start int64
	// StepMS is the grid interval in milliseconds.
	StepMS int64
	// Values holds one sample per grid slot.
	Values []float64
}

// Len returns the number of grid samples.
func (r *Regular) Len() int { return len(r.Values) }

// GridBuckets returns the number of grid slots covering [start, end)
// with the given step (the last slot may be partial).
func GridBuckets(start, end, stepMS int64) int {
	return int((end - start + stepMS - 1) / stepMS)
}

// Resample buckets the raw series onto a regular grid covering
// [start, end) with the given step, averaging observations that fall into
// the same bucket and reconstructing empty buckets with a natural cubic
// spline over the known bucket centers (edge gaps are clamped to the
// nearest known value, since spline extrapolation is unbounded). It
// returns an error when the grid is empty or the series has no points.
func Resample(s *Series, start, end, stepMS int64) (*Regular, error) {
	if stepMS <= 0 {
		return nil, fmt.Errorf("timeseries: non-positive step %d", stepMS)
	}
	if end <= start {
		return nil, fmt.Errorf("timeseries: empty grid [%d,%d)", start, end)
	}
	if len(s.Points) == 0 {
		return nil, fmt.Errorf("timeseries: series %q has no points", s.Name)
	}
	n := GridBuckets(start, end, stepMS)
	sums := make([]float64, n)
	counts := make([]int, n)
	for _, p := range s.Points {
		if p.T < start || p.T >= end || math.IsNaN(p.V) {
			continue
		}
		i := int((p.T - start) / stepMS)
		sums[i] += p.V
		counts[i]++
	}
	return FromBuckets(s.Name, start, stepMS, sums, counts)
}

// FromBuckets assembles a Regular from per-bucket sums and observation
// counts: bucket i's value is sums[i]/counts[i], empty buckets (count 0)
// are reconstructed exactly like Resample's gap fill. It is the second
// half of Resample, exposed so callers that maintain bucket state
// incrementally (the online window cache) produce bit-identical grids to
// a from-scratch Resample over the same raw points. It returns an error
// when every bucket is empty.
func FromBuckets(name string, start, stepMS int64, sums []float64, counts []int) (*Regular, error) {
	if len(sums) != len(counts) {
		return nil, fmt.Errorf("timeseries: %d sums for %d counts", len(sums), len(counts))
	}
	values := make([]float64, len(sums))
	var knownX, knownY []float64
	for i := range values {
		if counts[i] > 0 {
			values[i] = sums[i] / float64(counts[i])
			knownX = append(knownX, float64(i))
			knownY = append(knownY, values[i])
		} else {
			values[i] = math.NaN()
		}
	}
	if len(knownX) == 0 {
		end := start + int64(len(sums))*stepMS
		return nil, fmt.Errorf("timeseries: series %q has no points inside [%d,%d)", name, start, end)
	}
	if err := fillGaps(values, knownX, knownY); err != nil {
		return nil, fmt.Errorf("timeseries: reconstructing %q: %w", name, err)
	}
	return &Regular{Name: name, Start: start, StepMS: stepMS, Values: values}, nil
}

// fillGaps replaces NaN slots using cubic-spline interpolation over the
// known samples; positions outside the known range are clamped to the
// nearest known value.
func fillGaps(values []float64, knownX, knownY []float64) error {
	if len(knownX) == len(values) {
		return nil // nothing missing
	}
	if len(knownX) == 1 {
		for i := range values {
			values[i] = knownY[0]
		}
		return nil
	}
	var sp *Spline
	if len(knownX) >= 3 {
		var err error
		sp, err = NewSpline(knownX, knownY)
		if err != nil {
			return err
		}
	}
	first, last := knownX[0], knownX[len(knownX)-1]
	for i := range values {
		if !math.IsNaN(values[i]) {
			continue
		}
		x := float64(i)
		switch {
		case x <= first:
			values[i] = knownY[0]
		case x >= last:
			values[i] = knownY[len(knownY)-1]
		case sp != nil:
			values[i] = sp.Eval(x)
		default: // exactly two knots: linear interpolation
			t := (x - first) / (last - first)
			values[i] = knownY[0] + t*(knownY[1]-knownY[0])
		}
	}
	return nil
}
