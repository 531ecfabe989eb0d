package parallel

import (
	"context"
	"sync"
	"time"
)

// Loops runs background work on fixed cadences, each loop on a goroutine
// of its own, until Stop. Every cadence of sieved is a loop of one: the
// store's interval fsync, checkpoint flusher and compactor, and the
// server's pipeline driver and self-scrape.
type Loops struct {
	mu     sync.Mutex // orders Every against Stop, so no Add follows Wait
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	added  int
}

// NewLoops returns an empty set of loops.
func NewLoops() *Loops {
	ctx, cancel := context.WithCancel(context.Background())
	return &Loops{ctx: ctx, cancel: cancel}
}

// Every runs fn every interval, and with atStart once before the first
// interval too. fn's ctx ends at Stop, so a long run can give up early.
// Once the loops are stopped, Every adds nothing.
func (l *Loops) Every(interval time.Duration, atStart bool, fn func(ctx context.Context)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ctx.Err() != nil {
		return
	}
	l.added++
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		if atStart {
			fn(l.ctx)
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-l.ctx.Done():
				return
			case <-t.C:
				fn(l.ctx)
			}
		}
	}()
}

// Added reports how many loops Every has started, stopped ones included.
func (l *Loops) Added() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.added
}

// Stop cancels every loop and returns once no run is in flight. Safe to
// call more than once, from any goroutine.
func (l *Loops) Stop() {
	l.mu.Lock()
	l.cancel()
	l.mu.Unlock()
	l.wg.Wait()
}
