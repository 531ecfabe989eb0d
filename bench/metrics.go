package main

// metricDecl is one declared metric. BENCHMARK.json at the repo root
// carries the same lists (TestBenchmarkJSONMatchesDeclarations pins
// that); Bound is the share of the parent's median by which an
// end-to-end metric may worsen before a change counts as a regression.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports from an untraced run.
// The benchmark driver requires each of them on every workload, so they
// are roles — the workload's set-up, its primary operation — and
// README.md says what each role is on each workload. The
// workload-specific names from the issue (write_p50_ms, compact_s,
// query_select_p50_ms, ...) are reported in the per-layer table.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer are the layer metrics, named after this repo's packages.
// Sources: C = client side of the driven run, M = delta of sieved's own
// /metrics over the measured phase, T = traced in-process replay.
var perLayer = []metricDecl{
	// Throughput of the workload's primary operation (C). Not end to
	// end: on a closed loop it restates the latency as a mean, which a
	// few stalls move by more than the 0.25 a bound may be, and on the
	// open loop it is the offered rate.
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	// The issue's workload-specific end-to-end figures (C).
	{Name: "ingest_pts_per_s", Unit: "samples/s", Better: "higher"},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "remote_write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "disk_bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "restart_ready_s", Unit: "s", Better: "lower"},
	{Name: "compact_s", Unit: "s", Better: "lower"},
	{Name: "query_per_s", Unit: "queries/s", Better: "higher"},
	{Name: "query_select_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query_pushdown_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query_decode_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query_rawwide_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cycle_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "failed_ops_share", Unit: "ratio", Better: "lower"},

	// Harness validity (C).
	{Name: "client.gen_share", Unit: "ratio", Better: "lower"},
	{Name: "client.sched_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.over_limit_share", Unit: "ratio", Better: "lower"},
	// Request tails (C).
	{Name: "client.write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.remote_write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.query_select_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.query_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.cycle_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.cycle_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.cycle_cold_ms", Unit: "ms", Better: "lower"},

	// internal/server.
	{Name: "server.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.write.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.write.self_us", Unit: "us", Better: "lower"},
	{Name: "server.remote_write.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.remote_write.self_us", Unit: "us", Better: "lower"},
	{Name: "server.query_range.marshal_share", Unit: "ratio", Better: "lower"},
	{Name: "server.write.busy_s", Unit: "s", Better: "lower"},
	{Name: "server.remote_write.busy_s", Unit: "s", Better: "lower"},
	{Name: "server.stats_ms", Unit: "ms", Better: "lower"},
	{Name: "server.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "server.selfscrape_call_ms", Unit: "ms", Better: "lower"},

	// Wire decoding: internal/tsdb line protocol, internal/snappy,
	// internal/promremote.
	{Name: "tsdb.lineproto.parse_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "snappy.decode_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "promremote.unmarshal_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "promremote.map_ns_per_series", Unit: "ns", Better: "lower"},

	// internal/tsdb write side.
	{Name: "tsdb.ingest.memory_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "tsdb.ingest.durable_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "tsdb.ingest.series_birth_us", Unit: "us", Better: "lower"},
	{Name: "tsdb.wal.append_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "tsdb.wal.bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "tsdb.wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "tsdb.wal.fsync_busy_s", Unit: "s", Better: "lower"},
	{Name: "tsdb.wal.append_busy_s", Unit: "s", Better: "lower"},
	{Name: "tsdb.checkpoint.runs", Unit: "count", Better: "lower"},
	{Name: "tsdb.checkpoint.busy_s", Unit: "s", Better: "lower"},
	{Name: "tsdb.checkpoint.pts_per_s", Unit: "samples/s", Better: "higher"},
	{Name: "tsdb.checkpoint.call_ms", Unit: "ms", Better: "lower"},
	{Name: "tsdb.block.bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "tsdb.compact.runs", Unit: "count", Better: "lower"},
	{Name: "tsdb.compact.busy_s", Unit: "s", Better: "lower"},
	{Name: "tsdb.compact.merged_blocks", Unit: "count", Better: "higher"},
	{Name: "tsdb.compact.reclaimed_bytes", Unit: "B", Better: "higher"},
	{Name: "tsdb.compact.downsample_busy_s", Unit: "s", Better: "lower"},
	{Name: "tsdb.compact.call_s", Unit: "s", Better: "lower"},
	{Name: "tsdb.recovery.open_blocks_s", Unit: "s", Better: "lower"},
	{Name: "tsdb.recovery.replay_pts_per_s", Unit: "samples/s", Better: "higher"},

	// internal/tsdb read side.
	{Name: "tsdb.query.select_us", Unit: "us", Better: "lower"},
	{Name: "tsdb.query.select_precompact_us", Unit: "us", Better: "lower"},
	{Name: "tsdb.query.select_call_us", Unit: "us", Better: "lower"},
	{Name: "tsdb.query.pushdown_call_us", Unit: "us", Better: "lower"},
	{Name: "tsdb.query.decode_call_us", Unit: "us", Better: "lower"},
	{Name: "tsdb.query.rawwide_call_us", Unit: "us", Better: "lower"},
	{Name: "tsdb.query.chunks_skipped", Unit: "count", Better: "higher"},
	{Name: "tsdb.query.chunks_summarized", Unit: "count", Better: "higher"},
	{Name: "tsdb.query.chunks_decoded", Unit: "count", Better: "lower"},
	{Name: "tsdb.query.downsampled_buckets", Unit: "count", Better: "higher"},
	{Name: "tsdb.query.decoded_share", Unit: "ratio", Better: "lower"},

	// internal/core, internal/kshape, internal/granger.
	{Name: "core.assemble.busy_s", Unit: "s", Better: "lower"},
	{Name: "core.dataset.from_db_ms", Unit: "ms", Better: "lower"},
	{Name: "core.windowcache.advance_ms", Unit: "ms", Better: "lower"},
	{Name: "core.reduce.busy_s", Unit: "s", Better: "lower"},
	{Name: "core.reduce.call_ms", Unit: "ms", Better: "lower"},
	{Name: "kshape.sbd_matrix_ms", Unit: "ms", Better: "lower"},
	{Name: "kshape.choosek_ms", Unit: "ms", Better: "lower"},
	{Name: "core.deps.busy_s", Unit: "s", Better: "lower"},
	{Name: "core.deps.call_ms", Unit: "ms", Better: "lower"},
	{Name: "granger.pair_us", Unit: "us", Better: "lower"},
	{Name: "granger.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "core.marshal.busy_s", Unit: "s", Better: "lower"},
	{Name: "core.marshal.call_ms", Unit: "ms", Better: "lower"},

	// The trace itself.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.unattributed_write_pct", Unit: "%", Better: "lower"},
	{Name: "trace.unattributed_query_pct", Unit: "%", Better: "lower"},
	{Name: "trace.unattributed_cycle_pct", Unit: "%", Better: "lower"},
}

// workloadDecl names a workload and why it was chosen.
type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDecl{
	{Name: "ingest", Why: "write-heavy: both ingest protocols, WAL, checkpoints, compaction and crash recovery do the work; the query and analysis layers do none"},
	{Name: "dashboard", Why: "read-heavy over compacted and hot data at 4096 series, where selection matters; four query shapes separate selection, index push-down, decode and marshal; ingest does almost nothing"},
	{Name: "pipeline", Why: "analysis-heavy on the paper's own ShareLatex application: reduce/k-Shape dominates each cycle; the store and HTTP are negligible"},
	{Name: "mixed", Why: "the same layers used together at a fixed open-loop rate, so a read-side gain that taxes writes, or a pipeline change that stalls ingest, shows here"},
}

// declared indexes every metric name.
var declared = func() map[string]metricDecl {
	m := map[string]metricDecl{}
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()
