package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one replayed request
// share Request; Parent is the ID of the span of the enclosing level (0
// for the outermost). The levels of a request are replayed one after
// another on twin instances, so a parent's interval does not contain its
// children's in time: containment is by construction (the parent level
// calls the child level's function), and self time is computed from the
// levels' medians.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the replay
// ends. While off, timed runs the call with no clock reads at all, which
// is what the overhead comparison needs.
type tracer struct {
	t0    time.Time
	spans []span
	on    bool
	// blockSize is how many consecutive requests share one on/off
	// setting.
	blockSize int

	// Blocks of requests alternate between on and off; the outer clock
	// around each block gives its cost per request, and the two medians
	// over blocks give the cost of recording. (Totals would let one burst
	// of interference on the shared box decide the figure.)
	onNS, offNS []float64
}

func newTracer(blockSize int) *tracer {
	return &tracer{t0: time.Now(), on: true, blockSize: blockSize}
}

// timed runs f as one span and returns the span's ID (0 while off).
func (t *tracer) timed(request, parent int, name string, f func()) int {
	if !t.on {
		f()
		return 0
	}
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNS: int64(start), EndNS: int64(end)})
	return id
}

// block runs n requests' worth of replay (request indices from..from+n)
// with recording on or off by block parity, under an outer clock.
func (t *tracer) block(from, n int, replay func(request int)) {
	t.on = (from/t.blockSize)%2 == 0
	start := time.Now()
	for i := from; i < from+n; i++ {
		replay(i)
	}
	perRequest := float64(time.Since(start).Nanoseconds()) / float64(n)
	if from < 2*t.blockSize {
		// The first pair of blocks pays for cold caches, new connections
		// and series births; it is traced but not set against anything.
	} else if t.on {
		t.onNS = append(t.onNS, perRequest)
	} else {
		t.offNS = append(t.offNS, perRequest)
	}
	t.on = true
}

// replayAll drives requests 0..n through replay in alternating blocks.
func (t *tracer) replayAll(n int, replay func(request int)) {
	for from := 0; from < n; from += t.blockSize {
		size := t.blockSize
		if from+size > n {
			size = n - from
		}
		t.block(from, size, replay)
	}
}

// overheadPct is the median per-request cost of the blocks replayed with
// spans on against that of the blocks replayed with spans off.
func (t *tracer) overheadPct() float64 {
	if len(t.onNS) == 0 || len(t.offNS) == 0 {
		return 0
	}
	return (median(t.onNS)/median(t.offNS) - 1) * 100
}

// overheadBlocks is how many blocks the overhead figure rests on.
func (t *tracer) overheadBlocks() int { return len(t.onNS) + len(t.offNS) }

// medians returns the median duration per span name, in nanoseconds.
func (t *tracer) medians() map[string]float64 {
	by := map[string][]float64{}
	for _, s := range t.spans {
		by[s.Name] = append(by[s.Name], float64(s.EndNS-s.StartNS))
	}
	out := make(map[string]float64, len(by))
	for name, v := range by {
		out[name] = median(v)
	}
	return out
}

func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// selfTime is a level's median minus the medians of the levels it
// contains.
func selfTime(med map[string]float64, level string, contains ...string) float64 {
	self := med[level]
	for _, c := range contains {
		self -= med[c]
	}
	return self
}

// write stores the spans as JSON lines under bench/out.
func (t *tracer) write(outDir, workload string) error {
	f, err := os.Create(filepath.Join(outDir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// level is one row of a printed path: a span name and the levels it
// contains.
type level struct {
	name     string
	contains []string
}

// printPath prints one request path level by level — median, self time —
// and returns the sum of the self times: what the trace attributes of one
// request, to set against what the client observed.
func (t *tracer) printPath(w io.Writer, title string, med map[string]float64, path []level) float64 {
	fmt.Fprintf(w, "-- trace path: %s --\n%-34s %8s %12s %12s\n", title, "level", "n", "median_us", "self_us")
	var sum float64
	for _, l := range path {
		self := selfTime(med, l.name, l.contains...)
		sum += self
		fmt.Fprintf(w, "%-34s %8d %12.1f %12.1f\n", l.name, t.count(l.name), med[l.name]/1e3, self/1e3)
	}
	fmt.Fprintf(w, "%-34s %8s %12s %12.1f\n", "sum of self times", "", "", sum/1e3)
	return sum
}

// unattributedPct is the share of the client-observed median (ms) that
// the trace's path sum (ns) does not account for.
func unattributedPct(clientMS, pathNS float64) float64 {
	if clientMS <= 0 {
		return 0
	}
	return (clientMS - pathNS/1e6) / clientMS * 100
}
