package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_total", "a counter"); again != c {
		t.Fatalf("second registration returned a different counter")
	}

	called := false
	r.GaugeFunc("test_func", "computed", func() float64 { called = true; return 42 })
	rds := r.Readings()
	if !called {
		t.Fatalf("GaugeFunc not evaluated by Readings")
	}
	want := map[string]float64{"test_total": 5, "test_func": 42}
	for _, rd := range rds {
		if w, ok := want[rd.Name]; ok && rd.Value != w {
			t.Fatalf("reading %s = %v, want %v", rd.Name, rd.Value, w)
		}
		delete(want, rd.Name)
	}
	if len(want) != 0 {
		t.Fatalf("missing readings: %v", want)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var h *Histogram
	c.Inc()
	c.Add(3)
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil instruments must read as zero")
	}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatalf("nil histogram quantile must be NaN")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 106 {
		t.Fatalf("sum = %v, want 106", got)
	}
	counts := make([]uint64, len(h.counts))
	h.snapshot(counts)
	// 0.5 and 1 land in le=1; 1.5 in le=2; 3 in le=4; 100 in +Inf.
	wantCounts := []uint64{2, 1, 1, 1}
	for i, w := range wantCounts {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, counts[i], w, counts)
		}
	}
	// NaN must be dropped, not counted.
	h.Observe(math.NaN())
	if h.Count() != 5 {
		t.Fatalf("NaN observation was counted")
	}
	// Quantiles: interpolated within buckets, +Inf clamps to top bound.
	if q := h.Quantile(1.0); q != 4 {
		t.Fatalf("p100 = %v, want clamp to 4", q)
	}
	if q := h.Quantile(0.5); q <= 0 || q > 2 {
		t.Fatalf("p50 = %v, want within (0, 2]", q)
	}
	empty := newHistogram([]float64{1})
	if !math.IsNaN(empty.Quantile(0.99)) {
		t.Fatalf("empty histogram quantile must be NaN")
	}
}

func TestHistogramReadingsFlatten(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op_seconds", "op latency", []float64{0.1, 1})
	rds := r.Readings()
	byName := func(rds []Reading) map[string]float64 {
		m := map[string]float64{}
		for _, rd := range rds {
			m[rd.Name] = rd.Value
		}
		return m
	}
	m := byName(rds)
	if m["op_seconds_count"] != 0 || m["op_seconds_sum"] != 0 {
		t.Fatalf("empty histogram readings = %v", m)
	}
	if _, ok := m["op_seconds_p99"]; ok {
		t.Fatalf("empty histogram must omit quantile readings (NaN is unwritable)")
	}
	h.Observe(0.05)
	h.Observe(0.5)
	m = byName(r.Readings())
	if m["op_seconds_count"] != 2 || m["op_seconds_sum"] != 0.55 {
		t.Fatalf("histogram readings = %v", m)
	}
	for _, q := range []string{"op_seconds_p50", "op_seconds_p99"} {
		v, ok := m[q]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s = %v (ok=%v), want finite", q, v, ok)
		}
	}
}

func TestRegistryPanicsOnKindMismatch(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual_total", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on counter-vs-histogram name collision")
		}
	}()
	r.Histogram("dual_total", "", nil)
}

func TestRegistryRejectsInvalidNames(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "2leading", "has-dash", "has space", "has{brace"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted, want panic", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
}

// The zero-allocation pin for every hot-path update: counters and
// histogram observations must not allocate — they run on the
// ingest, WAL, and query paths.
func TestHotPathUpdatesDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "")
	h := r.Histogram("alloc_seconds", "", nil)
	cases := []struct {
		name string
		fn   func()
	}{
		{"counter.Add", func() { c.Add(1) }},
		{"counter.Inc", func() { c.Inc() }},
		{"histogram.Observe", func() { h.Observe(0.003) }},
		{"nil histogram.Observe", func() { (*Histogram)(nil).Observe(1) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func TestConcurrentUpdatesAreConsistent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	h := r.Histogram("conc_seconds", "", []float64{0.5})
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if got, want := h.Sum(), 0.25*workers*per; math.Abs(got-want) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", got, want)
	}
}
