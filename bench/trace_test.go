package main

import (
	"math"
	"testing"
	"time"
)

// spansOf fabricates a tracer whose spans have the given durations (µs)
// per name.
func spansOf(durations map[string][]int64) *tracer {
	tr := newTracer(1)
	for name, ds := range durations {
		for i, d := range ds {
			tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Request: i, Name: name, StartNS: 0, EndNS: d * 1000})
		}
	}
	return tr
}

func TestSelfTimeIsMedianMinusContainedMedians(t *testing.T) {
	tr := spansOf(map[string][]int64{
		"http":    {1000, 900, 5000}, // median 1000
		"handler": {600, 700, 650},   // median 650
		"parse":   {100, 120, 110},   // median 110
		"ingest":  {400, 380, 390},   // median 390
	})
	med := tr.medians()
	if got := selfTime(med, "http", "handler"); got != 350_000 {
		t.Errorf("http self = %v ns, want 350000", got)
	}
	if got := selfTime(med, "handler", "parse", "ingest"); got != 150_000 {
		t.Errorf("handler self = %v ns, want 150000", got)
	}
	if got := selfTime(med, "parse"); got != 110_000 {
		t.Errorf("leaf self = %v ns, want its median", got)
	}
	// The self times of a whole path telescope to the outermost median.
	sum := selfTime(med, "http", "handler") + selfTime(med, "handler", "parse", "ingest") + med["parse"] + med["ingest"]
	if sum != med["http"] {
		t.Errorf("path sum %v, outermost median %v", sum, med["http"])
	}
	if got := unattributedPct(1.25, med["http"]); math.Abs(got-20) > 1e-9 {
		t.Errorf("unattributed = %v%%, want 20", got)
	}
}

func TestTracerBlocksAlternateAndSkipWarmup(t *testing.T) {
	tr := newTracer(2)
	var traced []int
	tr.replayAll(9, func(i int) {
		id := tr.timed(i, 0, "op", func() { time.Sleep(time.Millisecond) })
		if id != 0 {
			traced = append(traced, i)
		}
	})
	want := []int{0, 1, 4, 5, 8} // blocks of two: on, off, on, off, on
	if len(traced) != len(want) {
		t.Fatalf("traced requests %v, want %v", traced, want)
	}
	for i := range want {
		if traced[i] != want[i] {
			t.Fatalf("traced requests %v, want %v", traced, want)
		}
	}
	// Blocks 0 and 1 are warm-up; blocks 2 and 4 count as on, 3 as off.
	if len(tr.onNS) != 2 || len(tr.offNS) != 1 {
		t.Errorf("on/off blocks = %d/%d, want 2/1", len(tr.onNS), len(tr.offNS))
	}
	if len(tr.spans) != len(want) || tr.spans[2].Request != 4 {
		t.Errorf("spans %+v", tr.spans)
	}
}

func TestOverheadPct(t *testing.T) {
	tr := &tracer{onNS: []float64{110, 90, 5000}, offNS: []float64{100, 100}}
	if got := tr.overheadPct(); math.Abs(got-10) > 1e-9 {
		t.Errorf("overhead = %v%%, want 10", got)
	}
	if got := (&tracer{}).overheadPct(); got != 0 {
		t.Errorf("overhead with nothing replayed = %v", got)
	}
}
