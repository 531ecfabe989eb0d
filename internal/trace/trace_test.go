package trace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTracerCapturesInOrder(t *testing.T) {
	tr := NewTracer(16, nil)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{TimeMS: int64(i), Process: "web", Type: EventWrite, Bytes: i})
	}
	events := tr.Events()
	if len(events) != 5 {
		t.Fatalf("captured %d events, want 5", len(events))
	}
	for i, e := range events {
		if e.TimeMS != int64(i) {
			t.Fatalf("event %d at t=%d", i, e.TimeMS)
		}
	}
	st := tr.Stats()
	if st.Observed != 5 || st.Captured != 5 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.EncodedBytes == 0 {
		t.Error("encode work not accounted")
	}
}

func TestTracerRingOverflowDropsOldest(t *testing.T) {
	tr := NewTracer(4, nil)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{TimeMS: int64(i)})
	}
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("ring holds %d, want 4", len(events))
	}
	if events[0].TimeMS != 6 || events[3].TimeMS != 9 {
		t.Errorf("ring window = [%d..%d], want [6..9]", events[0].TimeMS, events[3].TimeMS)
	}
	if tr.Stats().Dropped != 6 {
		t.Errorf("dropped = %d, want 6", tr.Stats().Dropped)
	}
}

func TestTracerFilter(t *testing.T) {
	onlyConnect := func(e *Event) bool { return e.Type == EventConnect }
	tr := NewTracer(16, onlyConnect)
	tr.Emit(Event{Type: EventConnect})
	tr.Emit(Event{Type: EventRead})
	tr.Emit(Event{Type: EventWrite})
	tr.Emit(Event{Type: EventConnect})
	if got := len(tr.Events()); got != 2 {
		t.Fatalf("filter kept %d events, want 2", got)
	}
	st := tr.Stats()
	if st.Observed != 4 || st.Captured != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Encoding happens before filtering (ring-driver semantics).
	if st.EncodedBytes == 0 {
		t.Error("filtered events must still cost encoding")
	}
}

func TestEventEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := Event{
			TimeMS:  rng.Int63n(1 << 40),
			PID:     rng.Intn(1 << 16),
			Process: "proc" + string(rune('a'+rng.Intn(26))),
			Type:    EventType(1 + rng.Intn(5)),
			FD:      rng.Intn(1024),
			Local:   "10.0.0.1:80",
			Remote:  "10.0.0.2:12345",
			Bytes:   rng.Intn(1 << 20),
		}
		buf := appendEvent(nil, &e)
		got, n, ok := DecodeEvent(buf)
		return ok && n == len(buf) && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeEventTruncated(t *testing.T) {
	e := Event{TimeMS: 5, Process: "web", Type: EventRead, Local: "a:1", Remote: "b:2", Bytes: 9}
	buf := appendEvent(nil, &e)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, ok := DecodeEvent(buf[:cut]); ok {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

func TestEventTypeString(t *testing.T) {
	names := map[EventType]string{
		EventConnect: "connect", EventAccept: "accept", EventRead: "read",
		EventWrite: "write", EventClose: "close", EventType(0): "unknown",
	}
	for et, want := range names {
		if got := et.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(et), got, want)
		}
	}
}

func TestPacketCapture(t *testing.T) {
	pc := NewPacketCapture(8)
	pc.Capture(Packet{TimeMS: 1500, Payload: make([]byte, 100)})
	pc.Capture(Packet{TimeMS: 1600, Payload: make([]byte, 4)})
	pc.Capture(Packet{TimeMS: 1700, Payload: make([]byte, 50)})

	st := pc.Stats()
	if st.Records != 3 {
		t.Fatalf("records = %d, want 3", st.Records)
	}
	// Payloads snap to 8 bytes: 16+8 + 16+4 + 16+8 = 68.
	if st.Bytes != 68 {
		t.Errorf("bytes = %d, want 68 (snaplen truncation)", st.Bytes)
	}
}

func TestPacketCaptureDefaultSnapLen(t *testing.T) {
	pc := NewPacketCapture(0)
	pc.Capture(Packet{Payload: make([]byte, 100)})
	if pc.Stats().Bytes != 116 {
		t.Errorf("default snaplen must keep whole payload: %d", pc.Stats().Bytes)
	}
}
