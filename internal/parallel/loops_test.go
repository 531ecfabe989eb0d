package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoopsTickUntilStop: a loop runs every interval until Stop, no run
// starts after Stop returns, and Every on stopped loops adds nothing.
func TestLoopsTickUntilStop(t *testing.T) {
	l := NewLoops()
	var runs atomic.Int64
	l.Every(time.Millisecond, false, func(context.Context) { runs.Add(1) })
	for deadline := time.Now().Add(10 * time.Second); runs.Load() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d runs, want 3", runs.Load())
		}
	}
	l.Stop()
	after := runs.Load()
	l.Every(time.Millisecond, true, func(context.Context) { runs.Add(1) })
	time.Sleep(20 * time.Millisecond)
	if got := runs.Load(); got != after {
		t.Fatalf("runs went %d -> %d after Stop", after, got)
	}
	if n := l.Added(); n != 1 {
		t.Fatalf("Added = %d, want 1: Every after Stop must add nothing", n)
	}
	l.Stop() // a second Stop returns at once
}

// TestLoopsStopWaitsForAtStartRun: an atStart loop runs before its first
// interval, and Stop cancels the run's context and returns only once
// the run has.
func TestLoopsStopWaitsForAtStartRun(t *testing.T) {
	l := NewLoops()
	started := make(chan struct{})
	var done atomic.Bool
	l.Every(time.Hour, true, func(ctx context.Context) {
		close(started)
		<-ctx.Done()
		time.Sleep(10 * time.Millisecond)
		done.Store(true)
	})
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the atStart run did not start before the first interval")
	}
	l.Stop()
	if !done.Load() {
		t.Fatal("Stop returned while the run was in flight")
	}
}

// TestLoopsConcurrentEveryAndStop: Every and Stop called from several
// goroutines at once (the server's Start context ending while Close
// runs) leave no loop running once every Stop has returned.
func TestLoopsConcurrentEveryAndStop(t *testing.T) {
	l := NewLoops()
	var runs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Every(time.Millisecond, true, func(context.Context) { runs.Add(1) })
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Stop()
		}()
	}
	wg.Wait()
	l.Stop()
	after := runs.Load()
	time.Sleep(10 * time.Millisecond)
	if got := runs.Load(); got != after {
		t.Fatalf("runs went %d -> %d after every Stop returned", after, got)
	}
}
