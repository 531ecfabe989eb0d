package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/sieve-microservices/sieve/internal/promremote"
	"github.com/sieve-microservices/sieve/internal/server"
	"github.com/sieve-microservices/sieve/internal/snappy"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// loopback serves a twin server's Handler on a loopback listener, the
// outermost replay level.
type loopback struct {
	hs   *http.Server
	conn *conn
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{hs: &http.Server{Handler: h}, conn: newConn("http://" + ln.Addr().String()), done: make(chan struct{})}
	go func() {
		_ = lb.hs.Serve(ln)
		close(lb.done)
	}()
	return lb, nil
}

func (lb *loopback) close() {
	lb.conn.close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lb.hs.Shutdown(ctx); err != nil {
		_ = lb.hs.Close()
	}
	<-lb.done
}

// serveDirect calls a handler in-process, with no socket in between.
func serveDirect(h http.Handler, method, path, contentType, contentEncoding string, body []byte) (*httptest.ResponseRecorder, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if contentEncoding != "" {
		req.Header.Set("Content-Encoding", contentEncoding)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code < 200 || rec.Code > 299 {
		return rec, fmt.Errorf("%s %s: status %d: %.200s", method, path, rec.Code, rec.Body.Bytes())
	}
	return rec, nil
}

// durableTwinOptions is the ingest child's configuration with every
// background ticker that would add its own work to a replay turned off.
func durableTwinOptions(dir string) server.Options {
	return server.Options{
		Shards: 4, DataDir: dir, Fsync: "interval",
		FlushInterval: -1, CompactInterval: -1, Interval: time.Hour,
	}
}

func openDurableTwin(dir string) (*tsdb.Sharded, error) {
	return tsdb.OpenSharded(4, tsdb.DurabilityOptions{
		Dir: dir, Fsync: tsdb.FsyncInterval, FlushInterval: -1, CompactInterval: -1,
	})
}

// ingestTraceBlock is the on/off block of the ingest replay, in requests.
const ingestTraceBlock = 10

// traceIngest replays the head of the ingest input stream, one goroutine,
// through nested public entry points on twin instances: a loopback
// http.Server over Server.Handler(), Handler().ServeHTTP directly, the
// wire decoders, and Sharded.IngestParsed on a durable and an in-memory
// store. Every level sees the same requests in the same order on its own
// store.
func traceIngest(e *env, cfg runConfig, r *result) error {
	requests := cfg.scaledCount(2000, 8*ingestTraceBlock)
	gens := [2]*batchGen{newBatchGen(cfg.seed, 0, false), newBatchGen(cfg.seed, 1, true)}

	mk := func(name string) (string, error) { return e.mkdir("trace-ingest-" + name) }
	dirA, err := mk("http")
	if err != nil {
		return err
	}
	dirB, err := mk("handler")
	if err != nil {
		return err
	}
	dirC, err := mk("store")
	if err != nil {
		return err
	}
	srvA, err := server.New(durableTwinOptions(dirA))
	if err != nil {
		return err
	}
	defer srvA.Close()
	lb, err := serveLoopback(srvA.Handler())
	if err != nil {
		return err
	}
	defer lb.close()
	srvB, err := server.New(durableTwinOptions(dirB))
	if err != nil {
		return err
	}
	defer srvB.Close()
	durable, err := openDurableTwin(dirC)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			durable.Close()
		}
	}()
	memory := tsdb.NewSharded(4)

	tr := newTracer(ingestTraceBlock)
	var (
		replayErr error
		plain     []byte
		wreq      promremote.WriteRequest
		points    int
	)
	fail := func(err error) {
		if err != nil && replayErr == nil {
			replayErr = err
		}
	}
	tr.replayAll(requests, func(i int) {
		g := gens[i%2]
		payload, _ := g.next()
		proto, path, ctype, cenc := "write", "/write", "text/plain", ""
		if g.remote {
			proto, path, ctype, cenc = "remote_write", "/api/v1/write", "application/x-protobuf", "snappy"
		}
		root := tr.timed(i, 0, proto+".http", func() {
			_, err := lb.conn.do(http.MethodPost, path, ctype, cenc, payload)
			fail(err)
		})
		handler := tr.timed(i, root, proto+".handler", func() {
			_, err := serveDirect(srvB.Handler(), http.MethodPost, path, ctype, cenc, payload)
			fail(err)
		})
		var samples []tsdb.Sample
		if g.remote {
			tr.timed(i, handler, "remote_write.snappy", func() {
				var err error
				plain, err = snappy.AppendDecode(plain[:0], payload)
				fail(err)
			})
			tr.timed(i, handler, "remote_write.proto", func() {
				fail(promremote.UnmarshalInto(&wreq, plain))
			})
			tr.timed(i, handler, "remote_write.map", func() {
				samples = make([]tsdb.Sample, 0, wreq.SampleCount())
				for s := range wreq.TimeSeries {
					ts := &wreq.TimeSeries[s]
					component, metric, err := promremote.MapSeries(ts.Labels, "job")
					fail(err)
					for _, smp := range ts.Samples {
						samples = append(samples, tsdb.Sample{Component: component, Metric: metric, T: smp.TimestampMS, V: smp.Value})
					}
				}
			})
		} else {
			tr.timed(i, handler, "write.parse", func() {
				var err error
				samples, err = tsdb.ParseLineProtocol(payload)
				fail(err)
			})
		}
		points += len(samples)
		dur := tr.timed(i, handler, proto+".ingest_durable", func() {
			_, err := durable.IngestParsed(samples, len(payload), time.Now())
			fail(err)
		})
		tr.timed(i, dur, proto+".ingest_memory", func() {
			_, err := memory.IngestParsed(samples, len(payload), time.Now())
			fail(err)
		})
	})
	if replayErr != nil {
		return fmt.Errorf("traced ingest replay: %w", replayErr)
	}
	med := tr.medians()

	// Series birth: batches in which every series is new to the store.
	var births []float64
	for b := 0; b < 20; b++ {
		batch := make([]tsdb.Sample, batchSamples)
		for s := range batch {
			batch[s] = tsdb.Sample{
				Component: fmt.Sprintf("birth-%02d-comp-%02d", b, s/ingestMetrics),
				Metric:    metricName(s % ingestMetrics), T: scrapeIntervalMS, V: float64(s),
			}
		}
		t0 := time.Now()
		if _, err := memory.IngestParsed(batch, 0, t0); err != nil {
			return err
		}
		births = append(births, float64(time.Since(t0).Nanoseconds())/1e3/batchSamples)
	}

	// Recovery and checkpoint on the durable twin. A copy taken now is
	// WAL only; after Checkpoint and Close the directory is blocks only.
	walOnly, err := mk("walonly")
	if err != nil {
		return err
	}
	if err := copyDir(dirC, walOnly); err != nil {
		return err
	}
	t0 := time.Now()
	if err := durable.Checkpoint(); err != nil {
		return err
	}
	checkpointMS := float64(time.Since(t0).Nanoseconds()) / 1e6
	closed = true
	if err := durable.Close(); err != nil {
		return err
	}
	blockBytes, err := dirBytes(filepath.Join(dirC, "blocks"))
	if err != nil {
		return err
	}
	t0 = time.Now()
	replayed, err := openDurableTwin(walOnly)
	if err != nil {
		return err
	}
	replayS := time.Since(t0).Seconds()
	replayedPoints := replayed.Stats().Points
	replayed.Close()
	t0 = time.Now()
	reopened, err := openDurableTwin(dirC)
	if err != nil {
		return err
	}
	openBlocksS := time.Since(t0).Seconds()
	reopened.Close()
	if replayedPoints != points {
		r.checkFailed(0, "traced replay: WAL-only reopen recovered %d points, %d were ingested", replayedPoints, points)
	}

	perSample := func(name string) float64 { return med[name] / batchSamples }
	r.set("server.http_overhead_us", selfTime(med, "write.http", "write.handler")/1e3, tr.count("write.http"))
	r.set("server.write.handler_us", med["write.handler"]/1e3, tr.count("write.handler"))
	r.set("server.write.self_us", selfTime(med, "write.handler", "write.parse", "write.ingest_durable")/1e3, tr.count("write.handler"))
	r.set("server.remote_write.handler_us", med["remote_write.handler"]/1e3, tr.count("remote_write.handler"))
	r.set("server.remote_write.self_us", selfTime(med, "remote_write.handler",
		"remote_write.snappy", "remote_write.proto", "remote_write.map", "remote_write.ingest_durable")/1e3, tr.count("remote_write.handler"))
	r.set("tsdb.lineproto.parse_ns_per_sample", perSample("write.parse"), tr.count("write.parse"))
	r.set("snappy.decode_ns_per_sample", perSample("remote_write.snappy"), tr.count("remote_write.snappy"))
	r.set("promremote.unmarshal_ns_per_sample", perSample("remote_write.proto"), tr.count("remote_write.proto"))
	r.set("promremote.map_ns_per_series", perSample("remote_write.map"), tr.count("remote_write.map"))
	durNS := (perSample("write.ingest_durable") + perSample("remote_write.ingest_durable")) / 2
	memNS := (perSample("write.ingest_memory") + perSample("remote_write.ingest_memory")) / 2
	r.set("tsdb.ingest.durable_ns_per_sample", durNS, tr.count("write.ingest_durable")+tr.count("remote_write.ingest_durable"))
	r.set("tsdb.ingest.memory_ns_per_sample", memNS, tr.count("write.ingest_memory")+tr.count("remote_write.ingest_memory"))
	r.set("tsdb.wal.append_ns_per_sample", durNS-memNS, 0)
	r.set("tsdb.ingest.series_birth_us", median(births), len(births))
	r.set("tsdb.checkpoint.call_ms", checkpointMS, 1)
	if points > 0 {
		r.set("tsdb.block.bytes_per_sample", float64(blockBytes)/float64(points), points)
	}
	r.set("tsdb.recovery.replay_pts_per_s", float64(points)/replayS, 1)
	r.set("tsdb.recovery.open_blocks_s", openBlocksS, 1)
	r.set("trace.overhead_pct", tr.overheadPct(), tr.overheadBlocks())

	writeSum := tr.printPath(os.Stdout, "POST /write", med, []level{
		{"write.http", []string{"write.handler"}},
		{"write.handler", []string{"write.parse", "write.ingest_durable"}},
		{"write.parse", nil},
		{"write.ingest_durable", []string{"write.ingest_memory"}},
		{"write.ingest_memory", nil},
	})
	tr.printPath(os.Stdout, "POST /api/v1/write", med, []level{
		{"remote_write.http", []string{"remote_write.handler"}},
		{"remote_write.handler", []string{"remote_write.snappy", "remote_write.proto", "remote_write.map", "remote_write.ingest_durable"}},
		{"remote_write.snappy", nil},
		{"remote_write.proto", nil},
		{"remote_write.map", nil},
		{"remote_write.ingest_durable", []string{"remote_write.ingest_memory"}},
		{"remote_write.ingest_memory", nil},
	})
	client := r.get("write_p50_ms")
	fmt.Printf("client-observed /write median (untraced, over the process boundary): %.1f us\n", client*1e3)
	r.set("trace.unattributed_write_pct", unattributedPct(client, writeSum), 0)
	return tr.write(e.outDir, "ingest")
}
