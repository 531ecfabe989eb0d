package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/sieve-microservices/sieve/internal/server"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// setupRepeats is how many times a workload sets up within one run; the
// median is reported so one slow process start does not move setup_s.
const setupRepeats = 5

// writeStats is the closed-loop client's account of a phase: latencies
// per protocol (index 0 line protocol, 1 remote write).
type writeStats struct {
	lat       [2]latencies
	acked     int64
	attempted int64
	failed    int64
	clock     loopClock
	elapsed   time.Duration
	err       error // first failure, for the report
}

// sendBatch encodes the generator's next batch (outside the request
// clock), sends it, and checks the acknowledged sample count.
func sendBatch(c *conn, g *batchGen) (acked int, d time.Duration, err error) {
	payload, want := g.next()
	t0 := time.Now()
	var resp *http.Response
	if g.remote {
		resp, err = c.do(http.MethodPost, "/api/v1/write", "application/x-protobuf", "snappy", payload)
	} else {
		resp, err = c.do(http.MethodPost, "/write", "text/plain", "", payload)
	}
	d = time.Since(t0)
	if err != nil {
		return 0, d, err
	}
	acked, err = strconv.Atoi(resp.Header.Get("X-Sieve-Samples"))
	if err != nil || acked != want {
		return acked, d, fmt.Errorf("acknowledged %q samples, sent %d", resp.Header.Get("X-Sieve-Samples"), want)
	}
	return acked, d, nil
}

// writeLoop drives the two writers closed-loop from one goroutine, one
// request in flight, alternating protocols. With batches > 0 it sends
// exactly that many (fixed work); otherwise it runs until end and times
// only requests started at or after measureFrom.
func writeLoop(c *conn, gens [2]*batchGen, measureFrom, end time.Time, batches int) writeStats {
	var st writeStats
	var started time.Time
	for i := 0; ; i++ {
		loopStart := time.Now()
		if batches > 0 {
			if i >= batches {
				break
			}
		} else if !loopStart.Before(end) {
			break
		}
		acked, d, err := sendBatch(c, gens[i%2])
		st.attempted++
		st.acked += int64(acked) // warm-up included: the durability check counts every acknowledged sample
		if err != nil {
			st.failed++
			if st.err == nil {
				st.err = err
			}
		}
		if loopStart.Before(measureFrom) {
			continue
		}
		if started.IsZero() {
			started = loopStart
		}
		if err == nil {
			st.lat[i%2].add(d)
		}
		st.clock.request += d
		st.clock.loop += time.Since(loopStart)
	}
	if !started.IsZero() {
		st.elapsed = time.Since(started)
	}
	return st
}

// ingestChildArgs are the durable child's flags; the background cadences
// shrink with the run so a short run still sees several checkpoints and
// compactions.
func ingestChildArgs(cfg runConfig, dir string, background bool) []string {
	args := []string{"-data-dir", dir, "-fsync", "interval", "-interval", "1h"}
	if background {
		return append(args,
			"-flush-interval", cfg.scaled(5*time.Second).String(),
			"-compact-interval", cfg.scaled(10*time.Second).String())
	}
	return append(args, "-flush-interval=-1s", "-compact-interval=-1s")
}

func runIngest(e *env, cfg runConfig, r *result) error {
	t0 := time.Now()
	gens := [2]*batchGen{newBatchGen(cfg.seed, 0, false), newBatchGen(cfg.seed, 1, true)}
	genS := time.Since(t0).Seconds()
	dir, err := e.mkdir("ingest")
	if err != nil {
		return err
	}
	wc, probe := newConn(""), newConn("")
	defer wc.close()
	defer probe.close()
	var acked int64
	// collect folds one phase's operation counts into the result.
	collect := func(what string, st *writeStats) {
		r.ops(st.attempted, st.failed)
		if st.err != nil {
			r.checkFailed(0, "%s: %v", what, st.err)
		}
		acked += st.acked
	}

	// Set-up: the workload starts from a crash. A first life with the
	// flusher and compactor off takes a fixed number of batches into its
	// WAL and is killed; every timed start then replays that WAL until
	// /readyz answers 200. The last start keeps its child.
	c, err := e.spawn("ingest-wal", ingestChildArgs(cfg, dir, false)...)
	if err != nil {
		return err
	}
	wc.base = c.base
	first := writeLoop(wc, gens, time.Time{}, time.Time{}, cfg.scaledCount(4000, 2))
	collect("first life", &first)
	// Fixed work, nothing flushed: the steadiest reading of what holding
	// the samples costs in memory.
	rss, _, err := c.procUsage()
	if err != nil {
		return err
	}
	r.set("rss_peak_mb", rss, 0)
	c.kill()
	var readies []float64
	for i := 0; i < setupRepeats; i++ {
		last := i == setupRepeats-1
		if c, err = e.spawn("ingest", ingestChildArgs(cfg, dir, last)...); err != nil {
			return err
		}
		readies = append(readies, c.readyS)
		if !last {
			c.kill() // the WAL is untouched: the next start replays it again
		}
	}
	r.set("restart_ready_s", median(readies), len(readies))
	r.set("setup_s", genS+median(readies), len(readies))

	// Measured phase: closed loop, warm-up discarded.
	wc.base, probe.base = c.base, c.base
	measureFrom := time.Now().Add(cfg.warmup())
	end := measureFrom.Add(time.Duration(cfg.seconds * float64(time.Second)))
	br := openBracket(c, probe, measureFrom)
	st := writeLoop(wc, gens, measureFrom, end, 0)
	collect("measured phase", &st)
	m, cpuS, _, err := br.close()
	if err != nil {
		return err
	}

	all := append(append(latencies{}, st.lat[0]...), st.lat[1]...)
	var perS float64
	if st.elapsed > 0 {
		perS = float64(len(all)) / st.elapsed.Seconds()
	}
	r.set("ingest_pts_per_s", perS*batchSamples, len(all))
	r.set("write_p50_ms", st.lat[0].p50(), len(st.lat[0]))
	r.set("remote_write_p50_ms", st.lat[1].p50(), len(st.lat[1]))
	r.set("client.write_p99_ms", st.lat[0].p99(), len(st.lat[0]))
	r.set("client.remote_write_p99_ms", st.lat[1].p99(), len(st.lat[1]))
	r.set("client.write_max_ms", all.max(), len(all))
	r.set("client.gen_share", st.clock.genShare(), 0)
	r.set("op_p50_ms", all.p50(), len(all))
	r.set("ops_per_s", perS, len(all))
	if len(all) > 0 {
		r.set("cpu_ms_per_op", cpuS*1000/float64(len(all)), len(all))
	}
	setIngestLayerMetrics(r, m)

	// Durability check: kill the child mid-life, restart it, and count.
	// Everything acknowledged in any life must be there.
	c.kill()
	if c, err = e.spawn("ingest-check", ingestChildArgs(cfg, dir, false)...); err != nil {
		return err
	}
	probe.base = c.base
	r.ops(1, 0)
	got, err := countAll(probe)
	if err != nil {
		r.checkFailed(1, "count query after restart: %v", err)
	} else if got != acked {
		r.checkFailed(1, "after SIGKILL and restart the store holds %d samples, %d were acknowledged", got, acked)
	}
	// Graceful stop: the final checkpoint seals memory into a block, so
	// the data dir now holds what a sample costs at rest.
	if err := c.terminate(); err != nil {
		return err
	}
	bytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	if acked > 0 {
		r.set("disk_bytes_per_sample", float64(bytes)/float64(acked), 0)
	}
	if cfg.trace {
		return traceIngest(e, cfg, r)
	}
	return nil
}

// setIngestLayerMetrics lifts the M-sourced write-side rows out of a
// /metrics delta.
func setIngestLayerMetrics(r *result, m scrape) {
	samples := m["sieve_ingest_samples_total"] + m["sieve_remote_write_samples_total"] + m["sieve_selfscrape_samples_total"]
	r.set("server.write.busy_s", m["sieve_http_write_seconds_sum"], int(m["sieve_http_write_seconds_count"]))
	r.set("server.remote_write.busy_s", m["sieve_http_remote_write_seconds_sum"], int(m["sieve_http_remote_write_seconds_count"]))
	if samples > 0 {
		r.set("tsdb.wal.bytes_per_sample", m["sieve_wal_bytes_written_total"]/samples, int(samples))
	}
	r.set("tsdb.wal.fsyncs", m["sieve_wal_fsync_seconds_count"], 0)
	r.set("tsdb.wal.fsync_busy_s", m["sieve_wal_fsync_seconds_sum"], int(m["sieve_wal_fsync_seconds_count"]))
	r.set("tsdb.wal.append_busy_s", m["sieve_wal_append_seconds_sum"], int(m["sieve_wal_append_seconds_count"]))
	r.set("tsdb.checkpoint.runs", m["sieve_checkpoint_seconds_count"], 0)
	r.set("tsdb.checkpoint.busy_s", m["sieve_checkpoint_seconds_sum"], int(m["sieve_checkpoint_seconds_count"]))
	if busy := m["sieve_checkpoint_seconds_sum"]; busy > 0 {
		r.set("tsdb.checkpoint.pts_per_s", m["sieve_checkpoint_points_total"]/busy, int(m["sieve_checkpoint_seconds_count"]))
	}
	setCompactLayerMetrics(r, m)
}

// setCompactLayerMetrics lifts the compaction rows out of a /metrics
// delta.
func setCompactLayerMetrics(r *result, m scrape) {
	r.set("tsdb.compact.runs", m["sieve_compactions_total"], 0)
	r.set("tsdb.compact.busy_s", m["sieve_compaction_seconds_sum"], int(m["sieve_compaction_seconds_count"]))
	r.set("tsdb.compact.merged_blocks", m["sieve_compaction_merged_blocks_total"], 0)
	r.set("tsdb.compact.reclaimed_bytes", m["sieve_compaction_reclaimed_bytes_total"], 0)
	r.set("tsdb.compact.downsample_busy_s", m["sieve_downsample_seconds_sum"], int(m["sieve_downsample_seconds_count"]))
}

// countAll asks the child for agg=count over every series and the whole
// time range in one bucket, and sums the counts.
func countAll(c *conn) (int64, error) {
	to := strconv.FormatInt(tsdb.MaxTimestampMS, 10) // past every generated timestamp
	path := "/query_range?agg=count&from=0&to=" + to + "&step=" + to
	if err := c.get(path); err != nil {
		return 0, err
	}
	var resp server.QueryRangeResponse
	if err := json.Unmarshal(c.buf.Bytes(), &resp); err != nil {
		return 0, err
	}
	var total int64
	for _, sr := range resp.Results {
		for _, p := range sr.Points {
			total += int64(p.V)
		}
	}
	return total, nil
}
