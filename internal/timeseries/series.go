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

// Point is a single raw observation of a metric. It is also the store's
// point type (tsdb.Point is an alias), so a query result feeds Resample
// without a copy.
type Point struct {
	// T is the observation timestamp in milliseconds.
	T int64
	// V is the observed value.
	V float64
}

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

// Resample buckets the raw points of the series name onto a regular grid
// covering [start, end) with the given step (the last slot may be
// partial), averaging observations that fall into the same bucket and
// reconstructing empty buckets with a natural cubic spline over the known
// bucket centers (edge gaps are clamped to the nearest known value, since
// spline extrapolation is unbounded). Points outside [start, end) and NaN
// values are skipped; the order of pts does not matter beyond float
// summation order within a bucket. It returns an error when the grid is
// empty or no usable point falls inside it.
func Resample(name string, pts []Point, start, end, stepMS int64) (*Regular, error) {
	if stepMS <= 0 {
		return nil, fmt.Errorf("timeseries: non-positive step %d", stepMS)
	}
	if end <= start {
		return nil, fmt.Errorf("timeseries: empty grid [%d,%d)", start, end)
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("timeseries: series %q has no points", name)
	}
	n := int((end - start + stepMS - 1) / stepMS)
	sums := make([]float64, n)
	counts := make([]int, n)
	for _, p := range pts {
		if p.T < start || p.T >= end || math.IsNaN(p.V) {
			continue
		}
		i := int((p.T - start) / stepMS)
		sums[i] += p.V
		counts[i]++
	}
	values := sums // averaged in place
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
