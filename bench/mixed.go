package main

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// mixedSlot is the open-loop period of the writer and of the reader:
	// 20 scrapes/s (≈18k samples/s) and 20 queries/s.
	mixedSlot = 50 * time.Millisecond
	// mixedSpin is how long before its slot a stream stops sleeping.
	mixedSpin = 1500 * time.Microsecond
	// mixedLimit is the latency from due beyond which a request counts as
	// over the limit.
	mixedLimit = 50 * time.Millisecond
)

// mixedChildArgs sets the checkpoint and compaction cadences to about 5 s
// and 10 s, stretched or shrunk so the measured phase is a whole number of
// periods: it then holds the same number of checkpoints and compactions
// wherever the tickers' phases happen to sit. The pipeline driver's own
// ticker is parked (-interval 1h): its first tick would come one interval
// after the child started, near the end of a short phase or past it, so
// the harness posts /run at a fixed offset into the phase instead.
func mixedChildArgs(cfg runConfig, dir string) []string {
	periods := math.Max(1, math.Round(cfg.seconds/10))
	compact := time.Duration(cfg.seconds / periods * float64(time.Second))
	return []string{
		"-data-dir", dir, "-fsync", "interval",
		"-flush-interval", (compact / 2).String(),
		"-compact-interval", compact.String(),
		"-incremental", "-window", pipeWindow, "-interval", "1h",
		"-self-scrape-interval", "1s", "-app", pipeApp,
	}
}

// openStats is one open-loop goroutine's account of the measured phase.
// Latencies are from the instant the request was due, so a stall is
// charged to every request it delays.
type openStats struct {
	lat       map[string]*latencies
	lag       latencies // send start − due
	attempted int64
	failed    int64
	overLimit int64
	clock     loopClock
	err       error
}

func newOpenStats(kinds ...string) *openStats {
	st := &openStats{lat: map[string]*latencies{}}
	for _, k := range kinds {
		st.lat[k] = &latencies{}
	}
	return st
}

// openLoop issues one request per slot from start until end, never
// waiting for a slow reply to reschedule: a request that comes due while
// the previous one is still in flight is sent as soon as that returns,
// and its clock has been running since it was due. prepare builds the
// next request off the clock and returns its kind and the send function.
func openLoop(st *openStats, start, measureFrom, end time.Time, prepare func(i int) (string, func() error)) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * mixedSlot)
		if !due.Before(end) {
			return
		}
		t0 := time.Now()
		kind, send := prepare(i)
		gen := time.Since(t0)
		// A timer wakes 0.1–1 ms late on the reference box, a third of a
		// quiet request: sleep short of the slot and spin up to it.
		time.Sleep(time.Until(due) - mixedSpin)
		for time.Now().Before(due) {
		}
		sent := time.Now()
		err := send()
		done := time.Now()
		st.attempted++
		if err != nil {
			st.failed++
			if st.err == nil {
				st.err = err
			}
		}
		if due.Before(measureFrom) {
			continue
		}
		if err == nil {
			st.lat[kind].add(done.Sub(due))
		}
		if err != nil || done.Sub(due) > mixedLimit {
			st.overLimit++
		}
		st.lag.add(sent.Sub(due))
		st.clock.loop += mixedSlot
		st.clock.request += mixedSlot - gen // the slot minus the harness's own work
	}
}

func runMixed(e *env, cfg runConfig, r *result) error {
	phase := time.Duration((cfg.seconds + cfg.warmup().Seconds()) * float64(time.Second))
	ticks := pipePrefillTicks + int(phase/mixedSlot) + 1

	// Set-up, repeated: a durable child with the pipeline driver and
	// self-scrape on, its window prefilled over /write as fast as it will
	// take it, the call graph posted. The last repeat is the one measured.
	var (
		setups []float64
		c      *child
		sim    *simulator
	)
	wc, qc := newConn(""), newConn("")
	defer wc.close()
	defer qc.close()
	for i := 0; i < pipeSetupRepeats; i++ {
		t0 := time.Now()
		dir, err := e.mkdir("mixed")
		if err != nil {
			return err
		}
		if sim, err = newSimulator(cfg.seed, ticks); err != nil {
			return err
		}
		if c, err = e.spawn("mixed", mixedChildArgs(cfg, dir)...); err != nil {
			return err
		}
		wc.base, qc.base = c.base, c.base
		if _, err := prefill(wc, sim, r, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < pipeSetupRepeats-1 {
			c.kill()
		}
	}
	r.set("setup_s", median(setups), len(setups))

	// Measured phase, open loop: the writer and the reader each own a
	// schedule of one request per 50 ms slot, half a slot apart.
	var simNow atomic.Int64
	simNow.Store(sim.app.Now())
	comps := sim.app.Components()
	start := time.Now().Add(mixedSlot)
	measureFrom := start.Add(cfg.warmup())
	end := measureFrom.Add(time.Duration(cfg.seconds * float64(time.Second)))
	writer := newOpenStats("write")
	reader := newOpenStats("select", "pushdown", "decode", "readyz")
	var simErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		openLoop(writer, start, measureFrom, end, func(int) (string, func() error) {
			p, err := sim.next()
			if err != nil {
				simErr = err
			}
			now := sim.app.Now()
			return "write", func() error {
				err := wc.writeLine(p)
				simNow.Store(now)
				return err
			}
		})
	}()
	go func() {
		defer wg.Done()
		openLoop(reader, start.Add(mixedSlot/2), measureFrom, end, func(i int) (string, func() error) {
			if i%20 == 19 { // once a second the slot goes to the readiness probe
				return "readyz", func() error { return qc.get("/readyz") }
			}
			now := simNow.Load()
			v := url.Values{}
			var kind string
			// select, decode, select, decode, select, pushdown: the
			// all-series pushdown takes about a slot on the reference
			// box, so at every third query it ran beside a third of the
			// writes and the median write sat on the edge of two modes.
			switch i % 6 {
			case 0, 2, 4:
				kind = "select"
				v.Set("component", comps[(i/2)%len(comps)])
				v.Set("metric", "*")
				v.Set("from", strconv.FormatInt(now-60_000, 10))
			case 5:
				kind = "pushdown"
				v.Set("agg", "max")
				v.Set("step", "10000")
				v.Set("from", strconv.FormatInt(now-pipeWindowMS, 10))
			default:
				kind = "decode"
				v.Set("metric", "cpu*")
				v.Set("agg", "avg")
				v.Set("step", "5000")
				v.Set("from", strconv.FormatInt(now-pipeWindowMS, 10))
			}
			v.Set("to", strconv.FormatInt(now+1, 10))
			path := "/query_range?" + v.Encode()
			return kind, func() error { return qc.get(path) }
		})
	}()
	// One pipeline cycle, a tenth of the way into the phase: long enough
	// in that the streams have settled, early enough that the cycle ends
	// inside the phase on a slow day.
	var cycle time.Duration
	var cycleErr error
	rc := newConn(c.base)
	defer rc.close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(measureFrom.Add(time.Duration(cfg.seconds / 10 * float64(time.Second)))))
		cycle, _, cycleErr = postRun(rc)
	}()
	probe := newConn(c.base)
	defer probe.close()
	br := openBracket(c, probe, measureFrom)
	wg.Wait()
	phaseS := time.Since(measureFrom).Seconds() // ends when the last reply is in
	if simErr != nil {
		return simErr
	}
	m, cpuS, rss, err := br.close()
	if err != nil {
		return err
	}

	var clock loopClock
	var lag latencies
	var done, over int64
	for i, st := range []*openStats{writer, reader} {
		r.ops(st.attempted, st.failed)
		if st.err != nil {
			r.checkFailed(0, "%s: %v", []string{"writer", "reader"}[i], st.err)
		}
		clock.merge(st.clock)
		lag = append(lag, st.lag...)
		over += st.overLimit
		for _, l := range st.lat {
			done += int64(len(*l))
		}
	}
	var queries latencies
	for _, k := range []string{"select", "pushdown", "decode"} {
		queries = append(queries, *reader.lat[k]...)
	}
	w, sel := *writer.lat["write"], *reader.lat["select"]
	r.set("write_p50_ms", w.p50(), len(w))
	r.set("client.write_p99_ms", w.p99(), len(w))
	r.set("client.write_max_ms", w.max(), len(w))
	r.set("query_select_p50_ms", sel.p50(), len(sel))
	r.set("client.query_select_p99_ms", sel.p99(), len(sel))
	r.set("client.query_max_ms", queries.max(), len(queries))
	r.set("client.gen_share", clock.genShare(), 0)
	r.set("client.sched_lag_p99_ms", lag.p99(), len(lag))
	r.set("client.over_limit_share", float64(over)/float64(len(lag)), len(lag))
	r.set("op_p50_ms", w.p50(), len(w))
	r.set("ops_per_s", float64(done)/phaseS, int(done))
	if done > 0 {
		r.set("cpu_ms_per_op", cpuS*1000/float64(done), int(done))
	}
	r.set("rss_peak_mb", rss, 0)
	setIngestLayerMetrics(r, m)
	setQueryLayerMetrics(r, m)
	setPipelineLayerMetrics(r, m)

	r.set("client.cycle_p50_ms", float64(cycle)/float64(time.Millisecond), 1)

	// Output checks: the pipeline ran and never failed, and the child is
	// still ready (the in-phase /readyz probes count as operations).
	r.ops(1, 0)
	switch {
	case cycleErr != nil:
		r.checkFailed(1, "POST /run beside the streams: %v", cycleErr)
	case m["sieve_pipeline_failures_total"] != 0:
		r.checkFailed(1, "sieve_pipeline_failures_total rose by %v", m["sieve_pipeline_failures_total"])
	case m["sieve_selfscrape_errors_total"] != 0:
		r.checkFailed(1, "sieve_selfscrape_errors_total rose by %v", m["sieve_selfscrape_errors_total"])
	}
	r.ops(1, 0)
	if err := probe.get("/readyz"); err != nil {
		r.checkFailed(1, "after the run: %v", err)
	}
	if err := c.terminate(); err != nil {
		return fmt.Errorf("graceful stop: %w", err)
	}
	if cfg.trace {
		return traceMixed(e, cfg, r)
	}
	return nil
}
