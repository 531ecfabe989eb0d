package telemetry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"testing"
)

// TestReporterCountsAndLogsTransitions: every failure is counted on the
// given counter, but only a change between failing and recovered logs;
// a canceled run is kept as the last error without being counted, and
// Alive stamps the time without touching the failure state.
func TestReporterCountsAndLogsTransitions(t *testing.T) {
	var logs bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logs, nil)))
	defer slog.SetDefault(prev)

	c := new(Counter)
	r := NewReporter("job", c)
	boom := errors.New("boom")
	if err := r.Report(boom); err != boom {
		t.Fatalf("Report returned %v, want its argument", err)
	}
	r.Report(boom)
	r.Report(fmt.Errorf("stage: %w", context.Canceled))
	if h := r.Health(); h.Failures != 2 || c.Value() != 2 || h.LastError != "stage: context canceled" || !h.Last.IsZero() {
		t.Fatalf("after two failures and a cancel: %+v (counter %d)", h, c.Value())
	}
	r.Alive()
	alive := r.Health()
	if alive.Last.IsZero() || alive.LastError == "" {
		t.Fatalf("Alive changed more than the time: %+v", alive)
	}
	r.Report(nil)
	r.Report(nil)
	if h := r.Health(); h.Failures != 2 || h.LastError != "" || h.Last.Before(alive.Last) {
		t.Fatalf("after recovery: %+v", h)
	}
	r.Report(boom)

	out := logs.String()
	for msg, want := range map[string]int{`msg="job failing"`: 2, `msg="job recovered"`: 1} {
		if n := strings.Count(out, msg); n != want {
			t.Errorf("%d %s lines, want %d:\n%s", n, msg, want, out)
		}
	}
	if p := NewReporter("private", nil); p.Report(boom) != boom || p.Health().Failures != 1 {
		t.Fatal("a reporter without a counter does not count")
	}
}
