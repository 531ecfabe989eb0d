package main

import (
	"math"
	"testing"
)

func TestPickPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false},
		{40, 0.75, true},
		{99, 0.75, true},
		{100, 0.9, true},
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{10_000, 0.999, true},
		{100_000, 0.9999, true},
	}
	for _, c := range cases {
		got, ok := pickPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("pickPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, got) < 10 {
			t.Errorf("pickPercentile(%d) = %v leaves fewer than ten samples beyond it", c.n, got)
		}
	}
}

func TestP99FallsBackOnSmallSamples(t *testing.T) {
	var l latencies
	for i := 1; i <= 100; i++ {
		l = append(l, float64(i))
	}
	if got := l.p99(); got != 90 { // n=100 supports p90 only
		t.Errorf("p99 of 1..100 = %v, want the p90, 90", got)
	}
	if got := (latencies{3, 1, 2}).p99(); got != 3 {
		t.Errorf("p99 of three samples = %v, want the maximum", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each input.
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{5, 1, 9}, 1, 5, 9},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}
