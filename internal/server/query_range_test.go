package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"sync"
	"testing"

	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// writeQuerySeries ingests a deterministic multi-series dataset through
// the HTTP write path.
func writeQuerySeries(t *testing.T, c *Client) {
	t.Helper()
	var samples []tsdb.Sample
	for i := 0; i < 200; i++ {
		samples = append(samples,
			tsdb.Sample{Component: "web-a", Metric: "cpu_util", T: int64(i) * 100, V: float64(i % 10)},
			tsdb.Sample{Component: "web-b", Metric: "cpu_util", T: int64(i) * 100, V: float64(i % 7)},
			tsdb.Sample{Component: "db", Metric: "mem_used", T: int64(i)*100 + 50, V: float64(i)},
		)
	}
	if _, err := c.Write(tsdb.EncodeLineProtocol(samples)); err != nil {
		t.Fatal(err)
	}
}

func TestQueryRangeEndpoint(t *testing.T) {
	s, hs, c := newTestServer(t, Options{Shards: 4})
	writeQuerySeries(t, c)

	// Matcher over the web components, raw: must equal per-series exact
	// reads (each series' own names as the globs) merged in key order.
	res, err := c.QueryRange(tsdb.RangeQuery{Component: "web-*", Metric: "*", From: 0, To: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Component != "web-a" || res[1].Component != "web-b" {
		t.Fatalf("unexpected matcher results: %+v", res)
	}
	for _, r := range res {
		want, err := c.QueryRange(tsdb.RangeQuery{Component: r.Component, Metric: r.Metric, From: 0, To: 20000})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual([]tsdb.SeriesResult{r}, want) {
			t.Fatalf("%s/%s: matcher points differ from the exact read", r.Component, r.Metric)
		}
	}

	// Aggregated: one avg bucket per 5000ms, server-side push-down. The
	// local store must agree with the HTTP round trip exactly (JSON
	// float64 round-trips bit-exact via Go's shortest-form encoding).
	aq := tsdb.RangeQuery{Component: "*", Metric: "cpu*", From: 0, To: 20000, Agg: tsdb.AggAvg, StepMS: 5000}
	res, err = c.QueryRange(aq)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Store().QueryRange(context.Background(), aq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("HTTP aggregated results differ from local engine:\n got %+v\nwant %+v", res, want)
	}

	// No matches: 200 with an empty result list, not an error.
	res, err = c.QueryRange(tsdb.RangeQuery{Component: "absent-*", Metric: "*", From: 0, To: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("want no results, got %+v", res)
	}

	// Default from/to (omitted): covers everything ingested.
	httpGet := func(query string) (int, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/query_range?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	status, body := httpGet("component=db")
	if status != http.StatusOK {
		t.Fatalf("default-range query: %d %s", status, body)
	}
	var qr QueryRangeResponse
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != 1 || len(qr.Results[0].Points) != 200 {
		t.Fatalf("default-range query missed points: %s", body)
	}

	// Malformed parameters are client errors.
	for _, bad := range []url.Values{
		{"from": {"10"}, "to": {"5"}},
		{"step": {"100"}},                    // step without agg
		{"agg": {"max"}},                     // agg without step
		{"agg": {"median"}, "step": {"100"}}, // unknown agg
		{"from": {"not-a-number"}},
	} {
		if status, body := httpGet(bad.Encode()); status != http.StatusBadRequest {
			t.Errorf("params %v: got %d %s, want 400", bad, status, body)
		}
	}
}

// TestQueryRangeDurableConcurrentCheckpoint drives /query_range over
// real HTTP while the durable store checkpoints underneath: results for
// a fully-written series must stay byte-stable throughout the cut.
func TestQueryRangeDurableConcurrentCheckpoint(t *testing.T) {
	s, _, c := newTestServer(t, Options{Shards: 4, DataDir: t.TempDir(), FlushInterval: -1})
	t.Cleanup(func() { s.Close() })
	writeQuerySeries(t, c)

	baseline, err := c.QueryRange(tsdb.RangeQuery{Component: "*", Metric: "*", From: 0, To: 1 << 40, Agg: tsdb.AggCount, StepMS: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := s.Store().Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 40; i++ {
		got, err := c.QueryRange(tsdb.RangeQuery{Component: "*", Metric: "*", From: 0, To: 1 << 40, Agg: tsdb.AggCount, StepMS: 1 << 40})
		if err != nil {
			t.Fatalf("query_range during checkpoint: %v", err)
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Fatalf("results changed mid-checkpoint:\n got %+v\nwant %+v", got, baseline)
		}
	}
	wg.Wait()
}

// TestQueryRangeMatchesAcrossRestart pins that a restarted durable
// server answers matcher and aggregated /query_range requests
// identically to the life that wrote the data (beside the per-series
// byte pin of TestServerRecoversAfterHardStop).
func TestQueryRangeMatchesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, _, c1 := newTestServer(t, Options{Shards: 4, DataDir: dir, FlushInterval: -1})
	writeQuerySeries(t, c1)
	queries := []tsdb.RangeQuery{
		{Component: "*", Metric: "*", From: 0, To: 1 << 40},
		{Component: "web-?", Metric: "cpu*", From: 3000, To: 17000, Agg: tsdb.AggAvg, StepMS: 1000},
		{Component: "*", Metric: "*", From: 0, To: 1 << 40, Agg: tsdb.AggRate, StepMS: 4000},
	}
	before := make([][]tsdb.SeriesResult, len(queries))
	for i, q := range queries {
		res, err := c1.QueryRange(q)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = res
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _, c2 := newTestServer(t, Options{Shards: 4, DataDir: dir, FlushInterval: -1})
	t.Cleanup(func() { s2.Close() })
	for i, q := range queries {
		res, err := c2.QueryRange(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, before[i]) {
			t.Fatalf("query %d differs across restart:\n got %+v\nwant %+v", i, res, before[i])
		}
	}
}
