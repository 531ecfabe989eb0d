package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"time"

	"github.com/sieve-microservices/sieve/internal/server"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// Dashboard data geometry: 256 components × 16 metrics = 4096 series,
// scraped every 15 s, sealed into one block per 15 minutes.
const (
	dashComponents   = 256
	dashMetrics      = 16
	dashSeries       = dashComponents * dashMetrics
	dashBlockScrapes = 60 // 15 min of 15 s scrapes
	dashBlockMS      = dashBlockScrapes * scrapeIntervalMS
	// dashBaseMS is hour-aligned, so a 1h-step query from the start of
	// history lines up with the 1h downsampled companions.
	dashBaseMS = int64(1_700_000_000_000) / 3_600_000 * 3_600_000
	// dashRounds is the length of the seeded query schedule each reader
	// cycles through.
	dashRounds = 24
)

var dashShapes = []string{"select", "pushdown", "decode", "rawwide"}

// dashData generates the dashboard series: seeded random walks (even
// metrics) and counters (odd metrics), one scrape of all 4096 series per
// call.
type dashData struct {
	rng     *rand.Rand
	vals    []float64
	samples []tsdb.Sample
	scrapes int
}

func dashComponent(c int) string { return "comp-" + strconv.Itoa(10000 + c)[1:] }

func newDashData(seed int64) *dashData {
	d := &dashData{
		rng:     rand.New(rand.NewSource(subSeed(seed, "dashboard-data"))),
		vals:    make([]float64, dashSeries),
		samples: make([]tsdb.Sample, dashSeries),
	}
	for c := 0; c < dashComponents; c++ {
		for m := 0; m < dashMetrics; m++ {
			i := c*dashMetrics + m
			d.samples[i].Component = dashComponent(c)
			d.samples[i].Metric = metricName(m)
			d.vals[i] = math.Round(d.rng.Float64()*1000*100) / 100
		}
	}
	return d
}

// scrape advances every series one step and returns the samples (the
// slice is reused by the next call).
func (d *dashData) scrape() []tsdb.Sample {
	t := dashBaseMS + int64(d.scrapes)*scrapeIntervalMS
	d.scrapes++
	for i := range d.samples {
		if i%2 == 1 {
			d.vals[i] += float64(d.rng.Intn(64))
		} else {
			d.vals[i] = math.Round((d.vals[i]+d.rng.NormFloat64()*3)*100) / 100
		}
		d.samples[i].T = t
		d.samples[i].V = d.vals[i]
	}
	return d.samples
}

// dashPreload writes blocks×15 min of history into a fresh durable store
// at dir, one checkpointed block per 15 minutes, and closes it.
func dashPreload(d *dashData, dir string, blocks int) error {
	st, err := tsdb.OpenSharded(4, tsdb.DurabilityOptions{
		Dir: dir, Fsync: tsdb.FsyncNever, FlushInterval: -1, CompactInterval: -1,
	})
	if err != nil {
		return err
	}
	for b := 0; b < blocks; b++ {
		for s := 0; s < dashBlockScrapes; s++ {
			if err := st.WriteSamples(d.scrape(), 0); err != nil {
				st.Close()
				return err
			}
		}
		if err := st.Checkpoint(); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// dashQuery is one /query_range request of the schedule with the
// fingerprint its response body must have.
type dashQuery struct {
	shape string
	path  string
	q     tsdb.RangeQuery
	want  uint64
}

// dashSchedule builds the seeded schedule: dashRounds rounds, each one
// dashboard refresh of the four shapes. endMS is the exclusive end of the
// data (history plus hot head).
func dashSchedule(seed int64, reader int, endMS int64) [][]dashQuery {
	rng := rand.New(rand.NewSource(subSeed(seed, "dashboard-reader-"+strconv.Itoa(reader))))
	mk := func(shape, component, metric, agg string, step, from int64) dashQuery {
		v := url.Values{}
		if component != "" {
			v.Set("component", component)
		}
		if metric != "" {
			v.Set("metric", metric)
		}
		if agg != "" {
			v.Set("agg", agg)
			v.Set("step", strconv.FormatInt(step, 10))
		}
		if from < dashBaseMS {
			from = dashBaseMS
		}
		v.Set("from", strconv.FormatInt(from, 10))
		v.Set("to", strconv.FormatInt(endMS, 10))
		q, err := tsdb.ParseRangeQuery(component, metric, v.Get("from"), v.Get("to"), agg, v.Get("step"), endMS)
		if err != nil {
			panic(err) // the schedule is built from constants
		}
		return dashQuery{shape: shape, path: "/query_range?" + v.Encode(), q: q}
	}
	rounds := make([][]dashQuery, dashRounds)
	for i := range rounds {
		comp := rng.Intn(dashComponents)
		rounds[i] = []dashQuery{
			mk("select", dashComponent(comp), "*", "", 0, endMS-15*60_000),
			mk("pushdown", fmt.Sprintf("comp-0%d*", rng.Intn(2)), "", "max", 3_600_000, dashBaseMS),
			mk("decode", fmt.Sprintf("comp-0%02d?", rng.Intn(25)), "", "avg", 60_000, endMS-2*3_600_000),
			mk("rawwide", "", metricName(rng.Intn(dashMetrics)), "", 0, endMS-3_600_000),
		}
	}
	return rounds
}

// referenceBody is what the server must answer for q: the in-process
// Sharded.QueryRange result on the twin, encoded the way the handler
// encodes it.
func referenceBody(twin *tsdb.Sharded, q tsdb.RangeQuery) ([]byte, error) {
	results, err := twin.QueryRange(context.Background(), q)
	if err != nil {
		return nil, err
	}
	if results == nil {
		results = []tsdb.SeriesResult{}
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(server.QueryRangeResponse{
		From: q.From, To: q.To, Agg: q.Agg.String(), StepMS: q.StepMS, Results: results,
	})
	return buf.Bytes(), err
}

// fillReferences computes the expected fingerprint of every scheduled
// query on the twin, once per distinct query.
func fillReferences(twin *tsdb.Sharded, schedules ...[][]dashQuery) error {
	seen := map[string]uint64{}
	for _, sched := range schedules {
		for _, round := range sched {
			for i := range round {
				dq := &round[i]
				sum, ok := seen[dq.path]
				if !ok {
					body, err := referenceBody(twin, dq.q)
					if err != nil {
						return fmt.Errorf("reference for %s: %w", dq.path, err)
					}
					sum = bodySum(body)
					seen[dq.path] = sum
				}
				dq.want = sum
			}
		}
	}
	return nil
}

// readerStats is the closed-loop reader's account of the measured phase.
type readerStats struct {
	shape     map[string]*latencies
	round     latencies
	attempted int64
	failed    int64
	clock     loopClock
	elapsed   time.Duration
	err       error
}

// readLoop cycles the schedule closed-loop until end. One operation is a
// round: the four shapes back to back, as one dashboard refresh issues
// them; a round with a failed or wrong answer is a failed operation.
func readLoop(c *conn, sched [][]dashQuery, measureFrom, end time.Time) readerStats {
	st := readerStats{shape: map[string]*latencies{}}
	for _, s := range dashShapes {
		st.shape[s] = &latencies{}
	}
	var started time.Time
	for i := 0; ; i++ {
		loopStart := time.Now()
		if !loopStart.Before(end) {
			break
		}
		measured := !loopStart.Before(measureFrom)
		if measured && started.IsZero() {
			started = loopStart
		}
		var roundTime time.Duration
		var roundErr error
		for _, dq := range sched[i%len(sched)] {
			t0 := time.Now()
			err := c.get(dq.path)
			d := time.Since(t0)
			roundTime += d
			if err == nil && bodySum(c.buf.Bytes()) != dq.want {
				err = fmt.Errorf("%s: response differs from the in-process reference", dq.path)
			}
			if err != nil {
				if roundErr == nil {
					roundErr = err
				}
				continue
			}
			if measured {
				st.shape[dq.shape].add(d)
			}
		}
		st.attempted++
		if roundErr != nil {
			st.failed++
			if st.err == nil {
				st.err = roundErr
			}
		} else if measured {
			st.round.add(roundTime)
		}
		if measured {
			st.clock.request += roundTime
			st.clock.loop += time.Since(loopStart)
		}
	}
	if !started.IsZero() {
		st.elapsed = time.Since(started)
	}
	return st
}

// waitCompacted polls /metrics until the child's compactor has merged
// the preloaded blocks and built both companions of every block left,
// and returns the time that took from t0.
func waitCompacted(c *conn, t0 time.Time, startBlocks int) (float64, scrape, error) {
	deadline := t0.Add(120 * time.Second)
	tick := time.NewTicker(25 * time.Millisecond) // each poll costs the child a Stats pass
	defer tick.Stop()
	for time.Now().Before(deadline) {
		m, err := c.scrapeMetrics()
		if err != nil {
			return 0, nil, err
		}
		blocks := m["sieve_store_blocks"]
		merged := startBlocks < 2 || m["sieve_compaction_merged_blocks_total"] >= float64(startBlocks)
		if merged && m["sieve_downsample_seconds_count"] >= 2*blocks {
			return time.Since(t0).Seconds(), m, nil
		}
		<-tick.C
	}
	return 0, nil, fmt.Errorf("compaction of %d blocks did not finish within 120s", startBlocks)
}

func dashChildArgs(dir string) []string {
	return []string{"-data-dir", dir, "-downsample", "-compact-interval", "1s", "-flush-interval=-1s", "-interval", "1h"}
}

func runDashboard(e *env, cfg runConfig, r *result) error {
	blocks := cfg.scaledCount(32, 2)
	// Preload, in-process: the history every later step starts from.
	// Harness work, reported in the header and not in setup_s.
	t0 := time.Now()
	data := newDashData(cfg.seed)
	preload, err := e.mkdir("dash-preload")
	if err != nil {
		return err
	}
	if err := dashPreload(data, preload, blocks); err != nil {
		return err
	}
	// The hot head: the next 15 minutes, pre-encoded one scrape per
	// request.
	var head [][]byte
	for s := 0; s < dashBlockScrapes; s++ {
		head = append(head, tsdb.EncodeLineProtocol(data.scrape()))
	}
	endMS := dashBaseMS + int64(data.scrapes)*scrapeIntervalMS
	fmt.Printf("dashboard: preload %d blocks, %d points, generated in %.2fs\n",
		blocks, blocks*dashBlockScrapes*dashSeries, time.Since(t0).Seconds())

	// The twin: the same history and hot head in this process, never
	// compacted, answering every scheduled query through
	// Sharded.QueryRange. The child's answers must equal the twin's both
	// before and after the child compacts.
	twinDir, err := e.mkdir("dash-twin")
	if err != nil {
		return err
	}
	if err := copyDir(preload, twinDir); err != nil {
		return err
	}
	twin, err := tsdb.OpenSharded(4, tsdb.DurabilityOptions{
		Dir: twinDir, Fsync: tsdb.FsyncNever, FlushInterval: -1, CompactInterval: -1,
	})
	if err != nil {
		return err
	}
	defer twin.Close()
	// Pre-compaction probes cover history only: the head is not there yet.
	histEnd := endMS - dashBlockMS
	probes := dashSchedule(cfg.seed, 99, histEnd)[:1]
	if err := fillReferences(twin, probes); err != nil {
		return err
	}
	for _, p := range head {
		if _, err := twin.Write(p); err != nil {
			return err
		}
	}
	schedule := dashSchedule(cfg.seed, 0, endMS)
	if err := fillReferences(twin, schedule); err != nil {
		return err
	}

	// Set-up, once (it is the expensive part of the run): start a child
	// on a copy of the preload, let its compactor merge the blocks and
	// build the companions, then write the hot head.
	dir, err := e.mkdir("dash")
	if err != nil {
		return err
	}
	if err := copyDir(preload, dir); err != nil {
		return err
	}
	c, err := e.spawn("dashboard", dashChildArgs(dir)...)
	if err != nil {
		return err
	}
	ready := time.Now()
	writer := newConn(c.base)
	defer writer.close()
	// Before compaction: one refresh over history.
	r.ops(1, 0)
	for _, dq := range probes[0] {
		if err := writer.get(dq.path); err != nil {
			r.checkFailed(1, "before compaction: %v", err)
			break
		}
		if bodySum(writer.buf.Bytes()) != dq.want {
			r.checkFailed(1, "before compaction: %s differs from the in-process reference", dq.path)
			break
		}
	}
	compactS, compactM, err := waitCompacted(writer, ready, blocks)
	if err != nil {
		return err
	}
	t1 := time.Now()
	for _, p := range head {
		r.ops(1, 0)
		if err := writer.writeLine(p); err != nil {
			r.checkFailed(1, "hot head write: %v", err)
		}
	}
	r.set("setup_s", c.readyS+compactS+time.Since(t1).Seconds(), 1)
	r.set("compact_s", compactS, 1)
	setCompactLayerMetrics(r, compactM)

	// Measured phase: one closed-loop reader, warm-up discarded.
	rc := newConn(c.base)
	defer rc.close()
	measureFrom := time.Now().Add(cfg.warmup())
	end := measureFrom.Add(time.Duration(cfg.seconds * float64(time.Second)))
	br := openBracket(c, writer, measureFrom)
	st := readLoop(rc, schedule, measureFrom, end)
	m, cpuS, rss, err := br.close()
	if err != nil {
		return err
	}
	r.ops(st.attempted, st.failed)
	if st.err != nil {
		r.checkFailed(0, "reader: %v", st.err)
	}
	var allQ latencies
	for _, s := range dashShapes {
		allQ = append(allQ, *st.shape[s]...)
		r.set("query_"+s+"_p50_ms", st.shape[s].p50(), len(*st.shape[s]))
	}
	if st.elapsed > 0 {
		r.set("query_per_s", float64(len(allQ))/st.elapsed.Seconds(), len(allQ))
		r.set("ops_per_s", float64(len(st.round))/st.elapsed.Seconds(), len(st.round))
	}
	r.set("client.query_select_p99_ms", st.shape["select"].p99(), len(*st.shape["select"]))
	r.set("client.query_max_ms", allQ.max(), len(allQ))
	r.set("client.gen_share", st.clock.genShare(), 0)
	r.set("op_p50_ms", st.round.p50(), len(st.round))
	if len(st.round) > 0 {
		r.set("cpu_ms_per_op", cpuS*1000/float64(len(st.round)), len(st.round))
	}
	r.set("rss_peak_mb", rss, 0)
	setQueryLayerMetrics(r, m)

	c.kill()
	if cfg.trace {
		return traceDashboard(e, cfg, r, preload, head, twin, schedule)
	}
	return nil
}

// setQueryLayerMetrics lifts the chunk-fate rows out of a /metrics delta.
func setQueryLayerMetrics(r *result, m scrape) {
	skipped := m["sieve_query_chunks_skipped_total"]
	summarized := m["sieve_query_chunks_summarized_total"]
	decoded := m["sieve_query_chunks_decoded_total"]
	r.set("tsdb.query.chunks_skipped", skipped, 0)
	r.set("tsdb.query.chunks_summarized", summarized, 0)
	r.set("tsdb.query.chunks_decoded", decoded, 0)
	r.set("tsdb.query.downsampled_buckets", m["sieve_query_downsampled_buckets_total"], 0)
	if total := skipped + summarized + decoded; total > 0 {
		r.set("tsdb.query.decoded_share", decoded/total, int(total))
	}
}
