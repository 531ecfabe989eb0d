package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestTraceRingRecordsSlowOpsOnly(t *testing.T) {
	r := NewTraceRing(8, 50*time.Millisecond, nil)
	op := r.Op("fast")
	sp := op.Start()
	sp.End() // far under threshold
	if got := r.Snapshot(0); len(got) != 0 {
		t.Fatalf("fast span recorded: %+v", got)
	}

	slow := r.Op("slow")
	sp = slow.Start()
	sp.start = time.Now().Add(-time.Second) // backdate instead of sleeping
	sp.Stage("phase1", 600*time.Millisecond)
	sp.FieldInt("items", 42)
	sp.Field("kind", "test")
	if d := sp.End(); d < time.Second {
		t.Fatalf("duration = %v, want >= 1s", d)
	}
	traces := r.Snapshot(0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Op != "slow" || len(tr.Stages) != 1 || tr.Stages[0].Name != "phase1" {
		t.Fatalf("trace = %+v", tr)
	}
	if len(tr.Fields) != 2 || tr.Fields[0].Value != "42" || tr.Fields[1].Value != "test" {
		t.Fatalf("fields = %+v", tr.Fields)
	}
}

func TestTraceRingEvictsOldestAndSortsSlowestFirst(t *testing.T) {
	r := NewTraceRing(3, 0, nil) // zero threshold: record everything
	op := r.Op("op")
	for _, ms := range []int{10, 40, 20, 30} {
		sp := op.Start()
		sp.start = time.Now().Add(-time.Duration(ms) * time.Millisecond)
		sp.End()
	}
	traces := r.Snapshot(0)
	if len(traces) != 3 {
		t.Fatalf("ring kept %d, want 3", len(traces))
	}
	// The 10ms trace (oldest) was evicted; order is slowest-first.
	for i := 1; i < len(traces); i++ {
		if traces[i].duration > traces[i-1].duration {
			t.Fatalf("not sorted slowest-first: %+v", traces)
		}
	}
	if traces[len(traces)-1].Millis < 15 {
		t.Fatalf("oldest trace not evicted: %+v", traces)
	}
	if got := r.Snapshot(2); len(got) != 2 {
		t.Fatalf("Snapshot(2) returned %d", len(got))
	}
	if r.Total() != 4 {
		t.Fatalf("total = %d, want 4", r.Total())
	}
}

func TestTraceRingLogsOncePerCrossing(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	r := NewTraceRing(8, 50*time.Millisecond, func(tr *Trace) {
		mu.Lock()
		logged = append(logged, tr.Op)
		mu.Unlock()
	})
	op := r.Op("cycle")
	runSlow := func() {
		sp := op.Start()
		sp.start = time.Now().Add(-time.Second)
		sp.End()
	}
	runFast := func() { sp := op.Start(); sp.End() }

	runSlow()
	runSlow() // still slow: no second log
	if len(logged) != 1 {
		t.Fatalf("logged %d times while persistently slow, want 1", len(logged))
	}
	runFast() // recovery resets the latch
	runSlow() // new crossing logs again
	if len(logged) != 2 {
		t.Fatalf("logged %d times after recovery+crossing, want 2", len(logged))
	}
}

// The fast path — span start, stages, fields, sub-threshold end — must
// not allocate: spans wrap every request and pipeline cycle.
func TestFastPathSpanDoesNotAllocate(t *testing.T) {
	r := NewTraceRing(8, time.Hour, nil)
	op := r.Op("hot")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := op.Start()
		sp.Stage("a", time.Microsecond)
		sp.FieldInt("n", 7)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("fast-path span: %v allocs/op, want 0", allocs)
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(16, 0, func(*Trace) {})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			op := r.Op("worker")
			for i := 0; i < 200; i++ {
				sp := op.Start()
				sp.FieldInt("i", int64(i))
				sp.End()
				if i%10 == 0 {
					r.Snapshot(4)
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Total() != 8*200 {
		t.Fatalf("total = %d, want %d", r.Total(), 8*200)
	}
}
