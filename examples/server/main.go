// Server: run sieved in-process on a loopback listener with durable
// storage, drive the ShareLatex simulator against it over real HTTP —
// every scrape becomes a line-protocol POST /write covered by the
// write-ahead log — then force a pipeline run and poll /artifact for the
// live reduction, dependency graph, and autoscaling signal. Finally,
// "restart" the server: shut it down, boot a fresh one on the same data
// directory, and show that every ingested point survived. main_test.go
// holds the output to testdata/server.golden.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/sieve-microservices/sieve"
)

// boot starts an embedded sieved on a loopback port, persisting to dir.
// The returned stop may be called more than once.
func boot(dir string) (*sieve.Server, *sieve.ServerClient, func(), error) {
	srv, err := sieve.NewServer(sieve.ServerOptions{
		AppName:  "sharelatex",
		WindowMS: 240 * 500, // slide over the last 240 ticks
		DataDir:  dir,       // WAL + compressed blocks under here
		Fsync:    "interval",
	})
	if err != nil {
		return nil, nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close() // release the durable store's WAL and tickers
		return nil, nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	stop := sync.OnceFunc(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		_ = srv.Close() // graceful: checkpoint memory into a block
	})
	return srv, sieve.NewServerClient("http://" + ln.Addr().String()), stop, nil
}

func main() {
	dir, err := os.MkdirTemp("", "sieved-data-")
	if err != nil {
		log.Fatal(err)
	}
	err = run(os.Stdout, dir)
	os.RemoveAll(dir)
	if err != nil {
		log.Fatal(err)
	}
}

// run drives the example against a server persisting to dir. It prints
// nothing that depends on dir, the host's core count or its speed.
func run(w io.Writer, dir string) error {
	// First life: boot sieved with a data directory. In a real deployment
	// this is `sieved -data-dir /var/lib/sieved`; here we embed it so the
	// example is one process.
	_, client, stop, err := boot(dir)
	if err != nil {
		return err
	}
	defer stop()
	fmt.Fprintln(w, "sieved up with a durable data directory")

	// The application under observation: the simulated ShareLatex
	// deployment, with a syscall tracer attached for the call graph.
	app, err := sieve.NewShareLatex(42)
	if err != nil {
		return err
	}
	tracer := sieve.NewTracer(0, nil)
	app.AttachTracer(tracer)

	// Point a collector at the server's HTTP client: from here on, every
	// scrape ships over the wire like a Telegraf agent would.
	coll, err := sieve.NewMetricCollector(client, app.Registries()...)
	if err != nil {
		return err
	}

	// Drive a 240-tick randomized load session, scraping every tick.
	fmt.Fprintln(w, "driving load session over HTTP...")
	pattern := sieve.RandomLoad(7, 240, 200, 2500)
	if err := sieve.DriveLoad(context.Background(), app, pattern, coll); err != nil {
		return err
	}

	// Upload the observed topology so Granger testing is restricted to
	// communicating component pairs.
	if err := client.PostCallGraph(sieve.CallGraphFromSyscalls(tracer.Events())); err != nil {
		return err
	}

	// Normally the background driver recomputes every interval; force a
	// run so the example is deterministic and fast.
	info, err := client.RunPipeline()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pipeline run %d: window [%d,%d)ms, %d series -> %d clusters, %d edges\n",
		info.Generation, info.Start, info.End, info.Series, info.Clusters, info.Edges)

	// Poll /artifact like an autoscaler sidecar would.
	res, err := client.Artifact()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "artifact generation %d: %d -> %d metrics, %d dependency edges\n",
		res.Generation,
		res.Artifact.Reduction.TotalBefore(), res.Artifact.Reduction.TotalAfter(),
		len(res.Artifact.Graph.Edges))
	fmt.Fprintf(w, "autoscaling signal: %s (%d Granger relations)\n",
		res.Signal.Metric, res.Signal.Relations)

	before, err := client.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "server stats: %d points in %d series, %d writes, %d KB in\n",
		before.Points, before.Series, before.Writes, before.NetworkInBytes/1024)

	// Restart: shut the server down (final checkpoint seals memory into a
	// Gorilla block) and boot a fresh one on the same directory. Recovery
	// happens inside NewServer, before the listener takes traffic.
	fmt.Fprintln(w, "\nrestarting sieved on the same -data-dir...")
	stop()
	_, client2, stop2, err := boot(dir)
	if err != nil {
		return err
	}
	defer stop2()

	after, err := client2.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "recovered: %d points in %d series (was %d in %d), max ingest time %dms\n",
		after.Points, after.Series, before.Points, before.Series, after.MaxTimeMS)
	if after.Points != before.Points || after.Series != before.Series {
		return fmt.Errorf("restart lost data: %d/%d -> %d/%d points/series",
			before.Points, before.Series, after.Points, after.Series)
	}

	// The recovered store serves the same points the first life stored.
	// Names without '*' or '?' match that one series alone.
	series, err := client2.QueryRange(sieve.RangeQuery{
		Component: "web", Metric: sieve.ShareLatexHubMetric, From: 0, To: after.MaxTimeMS + 1,
	})
	if err != nil {
		return err
	}
	points := 0
	for _, r := range series {
		points += len(r.Points)
	}
	fmt.Fprintf(w, "query after restart: %d points of web/%s survived\n",
		points, sieve.ShareLatexHubMetric)
	return nil
}
