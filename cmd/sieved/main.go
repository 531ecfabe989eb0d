// Command sieved is the long-running Sieve server: sharded line-protocol
// ingestion over HTTP plus an online pipeline that re-runs metric
// reduction and Granger dependency analysis over a sliding window of the
// ingested data, keeping the autoscaling signal fresh.
//
// Usage:
//
//	sieved [-addr :8086] [-shards N] [-window 240s] [-interval 30s]
//	       [-step 500ms] [-app NAME]
//	       [-data-dir DIR] [-retention 24h] [-fsync interval]
//	       [-flush-interval 60s] [-compact-interval 5m] [-downsample]
//	       [-incremental] [-pprof-addr :6060] [-self-scrape-interval 15s]
//	       [-remote-write-component-label job] [-log-level info]
//
// Besides the line-protocol POST /write, sieved accepts Prometheus
// remote write 1.0 on POST /api/v1/write (snappy-compressed protobuf),
// so a real Prometheus (remote_write: url: http://sieved:8086/api/v1/write)
// or any remote-write-speaking agent can feed it directly. Labels map
// deterministically onto sieve's component/metric model: __name__ is the
// metric, the label named by -remote-write-component-label (default
// "job") is the component, and all remaining labels fold into the metric
// name as a sorted {k=v,...} suffix. Oversized requests are rejected
// with 413 (decompressed size over 64 MiB, checked before allocation)
// or 429 + Retry-After (over 1,000,000 samples), so a misbehaving
// sender backs off instead of taking the ingest edge down.
//
// With -data-dir the store is durable: writes go through a per-shard
// write-ahead log and are periodically sealed into Gorilla-compressed
// block files, so a restarted sieved serves the same data it was killed
// with. An empty -data-dir (the default) keeps the pure in-memory store.
// A background compactor (cadence -compact-interval, disable with a
// negative value) merges adjacent small blocks into larger ones up to
// 64 MiB of chunk data each — query results are byte-identical before
// and after. With -downsample every block it writes also carries 5m and
// 1h downsampled summaries (a block without them that no merge takes is
// rewritten alone to gain them) that coarse-step aggregated /query_range
// requests (min/max/count/rate with step a multiple of the resolution)
// answer without touching chunk data, keeping month-window queries over
// long -retention affordable.
//
// With -incremental the online pipeline's window ends align down to the
// sampling grid, so consecutive windows slide by whole steps. There is
// no cross-cycle state: every cycle reads its whole window from the
// store and recomputes reduction and dependency identification exactly.
//
// sieved observes itself: GET /metrics serves the Prometheus text
// exposition of its internal telemetry (ingest, WAL, checkpoint, query,
// and pipeline instruments), GET /healthz and /readyz are the liveness
// and readiness probes, and GET /debug/traces holds the slowest recent
// requests and pipeline cycles (retained past 1s). With
// -self-scrape-interval the same telemetry is also written into
// sieved's own store under the reserved "sieve" component every
// interval — queryable like any ingested series:
//
//	curl 'http://localhost:8086/query_range?component=sieve&metric=wal_fsync*'
//
// While self-scrape is on the analysis pipeline ignores that component
// (artifacts are unchanged). Both write protocols always reject it: only
// sieved's own samples carry process time, so the pipeline window and
// -retention age by the newest timestamp outside it.
//
// -pprof-addr serves net/http/pprof on a side listener so the online
// loop can be profiled in place:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=30
//
// Quickstart against a running instance:
//
//	curl -X POST --data-binary 'web,metric=cpu value=0.5 500' http://localhost:8086/write
//	curl http://localhost:8086/stats
//	curl 'http://localhost:8086/query_range?component=web*&agg=max&step=60000'
//	curl http://localhost:8086/artifact
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served via -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/sieve-microservices/sieve/internal/promremote"
	"github.com/sieve-microservices/sieve/internal/server"
)

func main() {
	addr := flag.String("addr", ":8086", "listen address")
	shards := flag.Int("shards", 0, "store shard count (0 = GOMAXPROCS)")
	window := flag.Duration("window", 240*time.Second, "sliding analysis window")
	interval := flag.Duration("interval", 30*time.Second, "pipeline recompute cadence")
	step := flag.Duration("step", 500*time.Millisecond, "analysis sampling grid")
	appName := flag.String("app", "sieved", "application label on artifacts")
	dataDir := flag.String("data-dir", "", "durable storage directory (empty = in-memory only)")
	retention := flag.Duration("retention", 0, "drop on-disk blocks whose newest point is this far behind the newest application timestamp, the reserved \"sieve\" component excluded (0 = keep forever)")
	fsync := flag.String("fsync", "interval", "WAL fsync policy: always, interval, or never")
	flushInterval := flag.Duration("flush-interval", 0, "block flush cadence (0 = default 60s, negative = disabled: blocks are written at shutdown only)")
	compactInterval := flag.Duration("compact-interval", 0, "block compaction cadence (0 = default 5m, negative = disabled)")
	downsample := flag.Bool("downsample", false, "write 5m/1h downsampled summaries with every block compaction writes, for coarse-step queries")
	incremental := flag.Bool("incremental", false, "align each analysis window's end down to the sampling grid, so windows slide by whole steps (no state carries across cycles)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	selfScrapeInterval := flag.Duration("self-scrape-interval", 0, "write own telemetry into the store under the reserved \"sieve\" component every interval (0 = disabled)")
	remoteWriteComponentLabel := flag.String("remote-write-component-label", "", "Prometheus label mapped to sieve's component on /api/v1/write (empty = default \"job\")")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, or error")
	flag.Parse()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "error: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(1)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
	if err := checkFlags(*window, *step, *interval, *retention, *flushInterval, *compactInterval, *selfScrapeInterval, *fsync, *shards, *remoteWriteComponentLabel); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	opts := server.Options{
		AppName:                   *appName,
		Shards:                    *shards,
		StepMS:                    step.Milliseconds(),
		WindowMS:                  window.Milliseconds(),
		Interval:                  *interval,
		DataDir:                   *dataDir,
		Retention:                 *retention,
		Fsync:                     *fsync,
		FlushInterval:             *flushInterval,
		CompactInterval:           *compactInterval,
		Downsample:                *downsample,
		Incremental:               *incremental,
		SelfScrapeInterval:        *selfScrapeInterval,
		RemoteWriteComponentLabel: *remoteWriteComponentLabel,
	}
	srv, err := server.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		// pprof registers on http.DefaultServeMux; the API runs on its
		// own mux, so the profiling surface only exists on this side
		// listener and is never exposed on -addr.
		go func() {
			fmt.Printf("pprof listening on %s (/debug/pprof/)\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof listener error:", err)
			}
		}()
	}

	durability := "in-memory"
	if srv.Store().Durable() {
		durability = fmt.Sprintf("durable at %s (fsync %s)", srv.Store().DataDir(), *fsync)
		if pts := srv.Store().Stats().Points; pts > 0 {
			fmt.Printf("recovered %d points from %s\n", pts, *dataDir)
		}
	}
	windowEnds := "newest-point"
	if *incremental {
		windowEnds = "grid-aligned"
	}
	eff := srv.Options()
	fmt.Printf("sieved listening on %s (%d shards, window %s, step %s, interval %s, %s, %s window ends)\n",
		*addr, srv.Store().NumShards(), time.Duration(eff.WindowMS)*time.Millisecond,
		time.Duration(eff.StepMS)*time.Millisecond, eff.Interval, durability, windowEnds)
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// checkFlags refuses the values the server could only run with by
// replacing them, or could never analyse with. The server keeps time in
// whole milliseconds and reads zero (or less) as "use the default", so a
// negative or sub-millisecond -window, -step or -interval would silently
// become 240s, 500ms or 30s, a sub-millisecond -retention "keep
// forever", and a negative -shards GOMAXPROCS; a -window, -step or
// -retention with a sub-millisecond remainder would be truncated to
// whole milliseconds (-interval stays a Duration); -fsync would only be
// looked at with -data-dir set; a window of fewer than
// server.MinWindowSamples grid steps ingests forever without a single
// pipeline cycle; a positive -retention shorter than -window drops the
// blocks holding the window's head, which resampling then makes up from
// the first surviving point; a positive -flush-interval, -compact-interval or
// -self-scrape-interval under 1ms runs its ticker flat out (a 1us flush
// cadence churns thousands of WAL segments a second), and a negative
// -self-scrape-interval means nothing; and the reserved __name__ label
// is always the metric, never the component.
func checkFlags(window, step, interval, retention, flush, compact, selfScrape time.Duration, fsync string, shards int, componentLabel string) error {
	for _, f := range []struct {
		name string
		d    time.Duration
	}{{"window", window}, {"step", step}, {"interval", interval}} {
		if f.d < time.Millisecond {
			return fmt.Errorf("-%s %s: must be at least 1ms", f.name, f.d)
		}
	}
	for _, f := range []struct {
		name string
		d    time.Duration
	}{{"window", window}, {"step", step}, {"retention", retention}} {
		if f.d%time.Millisecond != 0 {
			return fmt.Errorf("-%s %s: must be a whole number of milliseconds", f.name, f.d)
		}
	}
	if steps := window.Milliseconds() / step.Milliseconds(); steps < server.MinWindowSamples {
		return fmt.Errorf("-window %s is %d grid steps of -step %s: the pipeline needs at least %d",
			window, steps, step, server.MinWindowSamples)
	}
	if retention < 0 {
		return fmt.Errorf("-retention %s: must be 0 (keep forever) or at least 1ms", retention)
	}
	if retention > 0 && retention < window {
		return fmt.Errorf("-retention %s is shorter than -window %s: the pipeline would read a window whose head retention dropped", retention, window)
	}
	for _, f := range []struct {
		name, zero string
		d          time.Duration
	}{{"flush-interval", "0 (default 60s), negative (disabled)", flush}, {"compact-interval", "0 (default 5m), negative (disabled)", compact}} {
		if f.d > 0 && f.d < time.Millisecond {
			return fmt.Errorf("-%s %s: must be %s or at least 1ms", f.name, f.d, f.zero)
		}
	}
	if selfScrape < 0 || selfScrape > 0 && selfScrape < time.Millisecond {
		return fmt.Errorf("-self-scrape-interval %s: must be 0 (disabled) or at least 1ms", selfScrape)
	}
	switch fsync {
	case "always", "interval", "never":
	default:
		return fmt.Errorf("-fsync %q: must be always, interval or never", fsync)
	}
	if shards < 0 {
		return fmt.Errorf("-shards %d: must be 0 (GOMAXPROCS) or positive", shards)
	}
	if componentLabel == promremote.MetricNameLabel {
		return fmt.Errorf("-remote-write-component-label %s: the reserved label is always the metric", componentLabel)
	}
	return nil
}
