package telemetry

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"time"
)

// Reporter is the health record of one background job: the store's
// checkpoints and compaction passes, the server's pipeline runs and
// self-scrapes. It counts failures, keeps the last error and the time of
// the last good outcome, and logs once per change between failing and
// recovered, never per run: a job retried every tick against a full disk
// writes one line.
type Reporter struct {
	name     string
	failures *Counter
	mu       sync.Mutex
	failing  bool
	lastErr  string
	last     time.Time
}

// NewReporter returns the reporter of the job called name, which
// prefixes its log lines. Failures are counted on failures, or on a
// counter of the reporter's own when it is nil.
func NewReporter(name string, failures *Counter) *Reporter {
	if failures == nil {
		failures = new(Counter)
	}
	return &Reporter{name: name, failures: failures}
}

// Report records the outcome of one run and returns err. nil is a
// success: it clears the last error and stamps the time. A context
// cancellation or deadline is a run its caller abandoned, not a fault:
// kept as the last error, neither counted nor logged. Any other error is
// a failure, counted and kept.
func (r *Reporter) Report(err error) error {
	canceled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	var failed, recovered bool
	r.mu.Lock()
	switch {
	case err == nil:
		r.lastErr, r.last = "", time.Now()
		recovered, r.failing = r.failing, false
	case canceled:
		r.lastErr = err.Error()
	default:
		r.failures.Inc()
		r.lastErr = err.Error()
		failed, r.failing = !r.failing, true
	}
	failures := r.failures.Value()
	r.mu.Unlock()
	if failed {
		slog.Error(r.name+" failing", "failures", failures, "err", err)
	} else if recovered {
		slog.Info(r.name+" recovered", "failures", failures)
	}
	return err
}

// Alive records a run that found nothing to do, or the job's start: it
// stamps the time and changes nothing else.
func (r *Reporter) Alive() {
	r.mu.Lock()
	r.last = time.Now()
	r.mu.Unlock()
}

// Health is a Reporter's record at one moment.
type Health struct {
	Failures  int       // failed runs since the reporter was made
	LastError string    // the latest failure or abandoned run, "" after a success
	Last      time.Time // the last success or Alive; zero before
}

// Health returns the reporter's record.
func (r *Reporter) Health() Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Health{Failures: int(r.failures.Value()), LastError: r.lastErr, Last: r.last}
}
