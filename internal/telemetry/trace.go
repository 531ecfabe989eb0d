package telemetry

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpanParts bounds the per-span stage and field arrays. Spans are
// plain stack values sized for the operations sieved traces (a
// pipeline cycle has four stages; requests use a handful of fields);
// parts beyond the cap are dropped rather than allocated.
const maxSpanParts = 8

// TraceStage is one timed sub-step of a completed trace.
type TraceStage struct {
	Name     string  `json:"name"`
	Millis   float64 `json:"ms"`
	duration time.Duration
}

// TraceField is one key/value annotation on a completed trace —
// correlated counters (samples written, series scanned, cache hits)
// captured at operation time.
type TraceField struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Trace is one recorded slow operation, built only after a span
// crosses the ring's threshold (the fast path never materializes one).
type Trace struct {
	Op          string       `json:"op"`
	StartUnixMS int64        `json:"start_unix_ms"`
	Millis      float64      `json:"ms"`
	Stages      []TraceStage `json:"stages,omitempty"`
	Fields      []TraceField `json:"fields,omitempty"`
	duration    time.Duration
}

// TraceRing keeps the most recent slow operations — spans whose total
// duration crossed a fixed threshold — in a fixed-size ring.
// Sub-threshold spans touch nothing but one atomic load, so tracing
// every request and pipeline cycle is safe. Snapshot returns the
// retained traces sorted slowest-first, which is what GET /debug/traces
// serves.
type TraceRing struct {
	threshold time.Duration
	logFn     func(*Trace)

	mu    sync.Mutex
	buf   []*Trace
	next  int
	total uint64
}

// NewTraceRing creates a ring retaining the most recent `capacity`
// over-threshold traces. A zero threshold records every span (useful
// in tests). logFn, if non-nil, is called once per operation name each
// time that operation transitions from fast to slow (checkpoint-health
// style state-change logging, so a persistently slow op logs once, not
// once per request).
func NewTraceRing(capacity int, threshold time.Duration, logFn func(*Trace)) *TraceRing {
	if capacity <= 0 {
		capacity = 64
	}
	return &TraceRing{
		threshold: threshold,
		logFn:     logFn,
		buf:       make([]*Trace, 0, capacity),
	}
}

// Threshold returns the slow-op threshold the ring was built with.
func (r *TraceRing) Threshold() time.Duration {
	if r == nil {
		return 0
	}
	return r.threshold
}

// Total returns the number of traces recorded since startup (including
// ones the ring has since evicted).
func (r *TraceRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

func (r *TraceRing) record(t *Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, t)
	} else {
		r.buf[r.next] = t
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
}

// Snapshot returns up to n retained traces, slowest first (n <= 0
// means all). The returned traces are immutable once recorded.
func (r *TraceRing) Snapshot(n int) []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*Trace, len(r.buf))
	copy(out, r.buf)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].duration > out[j].duration })
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Op is a named traced operation. Create one per operation at wiring
// time (ring.Op("write")); its Start method is the per-request entry
// point. The slow bit tracks the fast/slow state for once-per-crossing
// logging with one atomic load on the fast path.
type Op struct {
	ring *TraceRing
	name string
	slow atomic.Bool
}

// Op returns a handle for the named operation. Nil-receiver safe:
// spans started from a nil ring's ops are no-ops beyond timekeeping.
func (r *TraceRing) Op(name string) *Op {
	return &Op{ring: r, name: name}
}

// Span measures one in-flight operation. It is a plain value — fixed
// arrays, no pointers to itself — so the fast path (start, a few
// stages/fields, sub-threshold end) allocates nothing. Not safe for
// concurrent use; a span belongs to the goroutine that started it.
type Span struct {
	op    *Op
	start time.Time

	nstages   int
	stageName [maxSpanParts]string
	stageDur  [maxSpanParts]time.Duration

	nfields  int
	fieldKey [maxSpanParts]string
	fieldStr [maxSpanParts]string
	fieldInt [maxSpanParts]int64
	fieldIsI [maxSpanParts]bool
}

// Start begins a span for this operation.
func (o *Op) Start() Span {
	return Span{op: o, start: time.Now()}
}

// Stage records a named sub-step duration (dropped beyond the cap).
func (s *Span) Stage(name string, d time.Duration) {
	if s.nstages >= maxSpanParts {
		return
	}
	s.stageName[s.nstages] = name
	s.stageDur[s.nstages] = d
	s.nstages++
}

// Field attaches a string annotation (dropped beyond the cap).
func (s *Span) Field(key, value string) {
	if s.nfields >= maxSpanParts {
		return
	}
	s.fieldKey[s.nfields] = key
	s.fieldStr[s.nfields] = value
	s.nfields++
}

// FieldInt attaches an integer annotation. The integer is kept raw and
// only formatted if the span turns out slow, keeping the fast path
// allocation-free.
func (s *Span) FieldInt(key string, value int64) {
	if s.nfields >= maxSpanParts {
		return
	}
	s.fieldKey[s.nfields] = key
	s.fieldInt[s.nfields] = value
	s.fieldIsI[s.nfields] = true
	s.nfields++
}

// End completes the span and returns its duration. If the duration
// crossed the ring's threshold, the span is materialized into a Trace
// and recorded; on a fast→slow transition for this op the ring's logFn
// fires once. Sub-threshold ends cost one time.Since and one atomic
// load.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	o := s.op
	if o == nil || o.ring == nil {
		return d
	}
	r := o.ring
	if d < r.threshold {
		// Fast: reset the slow latch so the next crossing logs again.
		if o.slow.Load() {
			o.slow.Store(false)
		}
		return d
	}
	t := &Trace{
		Op:          o.name,
		StartUnixMS: s.start.UnixMilli(),
		Millis:      float64(d) / float64(time.Millisecond),
		duration:    d,
	}
	if s.nstages > 0 {
		t.Stages = make([]TraceStage, s.nstages)
		for i := 0; i < s.nstages; i++ {
			t.Stages[i] = TraceStage{
				Name:     s.stageName[i],
				Millis:   float64(s.stageDur[i]) / float64(time.Millisecond),
				duration: s.stageDur[i],
			}
		}
	}
	if s.nfields > 0 {
		t.Fields = make([]TraceField, s.nfields)
		for i := 0; i < s.nfields; i++ {
			v := s.fieldStr[i]
			if s.fieldIsI[i] {
				v = strconv.FormatInt(s.fieldInt[i], 10)
			}
			t.Fields[i] = TraceField{Key: s.fieldKey[i], Value: v}
		}
	}
	r.record(t)
	if o.slow.CompareAndSwap(false, true) && r.logFn != nil {
		r.logFn(t)
	}
	return d
}
