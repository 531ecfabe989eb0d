package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/sieve-microservices/sieve/internal/server"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// selectProbes is how many times the matches-nothing query is timed.
const selectProbes = 200

// selectNothing times QueryRange with a matcher no series satisfies: all
// that is left of the query is series selection.
func selectNothing(st *tsdb.Sharded, endMS int64) (float64, error) {
	q := tsdb.RangeQuery{Component: "no-such-component", Metric: "*", From: dashBaseMS, To: endMS}
	times := make([]float64, 0, selectProbes)
	for i := 0; i < selectProbes; i++ {
		t0 := time.Now()
		res, err := st.QueryRange(context.Background(), q)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if len(res) != 0 {
			return 0, fmt.Errorf("matches-nothing query matched %d series", len(res))
		}
		times = append(times, float64(d.Nanoseconds())/1e3)
	}
	return median(times), nil
}

// traceDashboard replays the head of the reader's schedule, one goroutine,
// through a loopback http.Server over Server.Handler(), Handler().
// ServeHTTP directly, and Sharded.QueryRange, on a twin that holds the
// preload, compacted in-process with companions, plus the hot head. twin
// is the uncompacted store the references came from.
func traceDashboard(e *env, cfg runConfig, r *result, preload string, head [][]byte, twin *tsdb.Sharded, sched [][]dashQuery) error {
	endMS := sched[0][0].q.To
	dir, err := e.mkdir("trace-dash")
	if err != nil {
		return err
	}
	if err := copyDir(preload, dir); err != nil {
		return err
	}
	t0 := time.Now()
	srv, err := server.New(server.Options{
		Shards: 4, DataDir: dir, Fsync: "never", Downsample: true,
		FlushInterval: -1, CompactInterval: -1, Interval: time.Hour,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	r.set("tsdb.recovery.open_blocks_s", time.Since(t0).Seconds(), 1)
	st := srv.Store()

	pre, err := selectNothing(twin, endMS)
	if err != nil {
		return err
	}
	r.set("tsdb.query.select_precompact_us", pre, selectProbes)
	t0 = time.Now()
	if err := st.Compact(); err != nil {
		return err
	}
	r.set("tsdb.compact.call_s", time.Since(t0).Seconds(), 1)
	for _, p := range head {
		if _, err := st.Write(p); err != nil {
			return err
		}
	}
	post, err := selectNothing(st, endMS)
	if err != nil {
		return err
	}
	r.set("tsdb.query.select_us", post, selectProbes)

	lb, err := serveLoopback(srv.Handler())
	if err != nil {
		return err
	}
	defer lb.close()

	rounds := cfg.scaledCount(96, 8)
	tr := newTracer(1) // a block is one round: four requests
	var replayErr error
	fail := func(err error) {
		if err != nil && replayErr == nil {
			replayErr = err
		}
	}
	// One request is one round, so the on/off blocks hold whole rounds.
	tr.replayAll(rounds, func(i int) {
		for _, dq := range sched[i%len(sched)] {
			root := tr.timed(i, 0, dq.shape+".http", func() {
				fail(lb.conn.get(dq.path))
				if replayErr == nil && bodySum(lb.conn.buf.Bytes()) != dq.want {
					fail(fmt.Errorf("traced replay: %s differs from the reference", dq.path))
				}
			})
			handler := tr.timed(i, root, dq.shape+".handler", func() {
				_, err := serveDirect(srv.Handler(), "GET", dq.path, "", "", nil)
				fail(err)
			})
			tr.timed(i, handler, dq.shape+".call", func() {
				_, err := st.QueryRange(context.Background(), dq.q)
				fail(err)
			})
		}
	})
	if replayErr != nil {
		return fmt.Errorf("traced dashboard replay: %w", replayErr)
	}
	med := tr.medians()
	var pathSum, clientSum float64
	for _, shape := range dashShapes {
		r.set("tsdb.query."+shape+"_call_us", med[shape+".call"]/1e3, tr.count(shape+".call"))
		pathSum += tr.printPath(os.Stdout, "GET /query_range "+shape, med, []level{
			{shape + ".http", []string{shape + ".handler"}},
			{shape + ".handler", []string{shape + ".call"}},
			{shape + ".call", nil},
		})
		clientSum += r.get("query_" + shape + "_p50_ms")
	}
	if h := med["rawwide.handler"]; h > 0 {
		r.set("server.query_range.marshal_share", (h-med["rawwide.call"])/h, tr.count("rawwide.handler"))
	}
	fmt.Printf("client-observed medians of the four shapes (untraced, over the process boundary), summed: %.1f us\n", clientSum*1e3)
	r.set("trace.unattributed_query_pct", unattributedPct(clientSum, pathSum), 0)
	r.set("trace.overhead_pct", tr.overheadPct(), tr.overheadBlocks())
	return tr.write(e.outDir, "dashboard")
}
