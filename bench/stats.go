package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantileSorted is the nearest-rank quantile of an ascending sample
// (q in [0,1]); NaN for an empty sample.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	i := rank(len(s), q) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// rank is the 1-based nearest rank of quantile q in a sample of n. The
// epsilon keeps 0.9*100 = 90.00000000000001 from rounding up to 91.
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// median of an unsorted sample (mean of the middle pair for even n, so
// a two-sample median is not simply the smaller one).
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates pickPercentile chooses among,
// highest first.
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.75}

// pickPercentile returns the highest candidate percentile that still has
// at least ten samples beyond it in a sample of n, so a reported tail is
// never one or two outliers. ok is false when even p75 does not qualify
// (n < 40); callers then report the median only.
func pickPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if n-rank(n, c) >= 10 {
			return c, true
		}
	}
	return 0, false
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the exclusive
// method) so -repeat reports the same spread the acceptance rule uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		m := n + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// latencies is a request-latency sample in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/float64(time.Millisecond)) }

func (l latencies) p50() float64 { return median(l) }

func (l latencies) max() float64 {
	m := math.NaN()
	for _, x := range l {
		if math.IsNaN(m) || x > m {
			m = x
		}
	}
	return m
}

// p99 is the p99 when the sample supports it, else the highest percentile
// pickPercentile allows, else the maximum — the column is named p99 for
// the full-scale run, where n is always large enough.
func (l latencies) p99() float64 {
	p, ok := pickPercentile(len(l))
	if !ok {
		return l.max()
	}
	if p > 0.99 {
		p = 0.99
	}
	return quantileSorted(sorted(l), p)
}
