package server

import (
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/sieve-microservices/sieve/internal/telemetry"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// telemetrySet bundles every server-level instrument plus the slow-op
// trace ring. It is created once in New, on the store's registry;
// handlers and the pipeline hold the instrument pointers, so hot-path
// updates never touch the registry.
type telemetrySet struct {
	// /write: request latency plus the accept/reject split. failedWrites
	// counts, once each, the requests of either write protocol that did
	// not store their whole payload.
	writeSeconds    *telemetry.Histogram
	failedWrites    *telemetry.Counter
	ingestSamples   *telemetry.Counter
	parseRejects    *telemetry.Counter
	reservedRejects *telemetry.Counter
	storageErrors   *telemetry.Counter

	// /api/v1/write (Prometheus remote write): latency, accepted
	// samples, and the per-class reject split the backpressure contract
	// documents — snappy (400), protobuf (400), label/timestamp mapping
	// (400), size (413), sample limit (429) — plus dropped non-finite
	// values (staleness markers), which are not rejects.
	remoteWriteSeconds     *telemetry.Histogram
	remoteIngestSamples    *telemetry.Counter
	remoteSnappyRejects    *telemetry.Counter
	remoteProtoRejects     *telemetry.Counter
	remoteMappingRejects   *telemetry.Counter
	remoteSizeRejects      *telemetry.Counter
	remoteLimitRejects     *telemetry.Counter
	remoteDroppedNonFinite *telemetry.Counter

	// /query_range latency, split by how the engine can evaluate the
	// request: push-down aggregations ride chunk summaries, decode
	// aggregations must decompress, raw reads stream points out.
	rangePushdown *telemetry.Histogram
	rangeDecode   *telemetry.Histogram
	rangeRaw      *telemetry.Histogram

	// Online pipeline: whole-cycle plus the per-stage breakdown that
	// StageTimings already measures, lifted into histograms, and the
	// GET /artifact encode, once per generation on its first read.
	cycleSeconds    *telemetry.Histogram
	assembleSeconds *telemetry.Histogram
	reduceSeconds   *telemetry.Histogram
	depsSeconds     *telemetry.Histogram
	marshalSeconds  *telemetry.Histogram
	pipelineRuns    *telemetry.Counter
	grangerTests    *telemetry.Counter

	// Self-scrape passes and the samples they wrote.
	selfScrapes       *telemetry.Counter
	selfScrapeSamples *telemetry.Counter

	// Every pipeline run and self-scrape pass is reported, its failures
	// counted on sieve_pipeline_failures_total / _selfscrape_errors_total.
	pipeline, selfScrape *telemetry.Reporter

	// Slow-op tracing: one Op handle per traced operation.
	ring          *telemetry.TraceRing
	opWrite       *telemetry.Op
	opRemoteWrite *telemetry.Op
	opRange       *telemetry.Op
	opCycle       *telemetry.Op
}

// newTelemetrySet registers every server instrument on the store's own
// registry, beside the storage instruments and state gauges the store
// was born with, and builds the trace ring.
func newTelemetrySet(reg *telemetry.Registry, slowOp time.Duration) *telemetrySet {
	t := &telemetrySet{
		writeSeconds: reg.Histogram("sieve_http_write_seconds",
			"POST /write request latency (read + parse + store)", nil),
		failedWrites: reg.Counter("sieve_ingest_failed_requests_total",
			"/write and /api/v1/write requests that failed or stored only part of their payload"),
		ingestSamples: reg.Counter("sieve_ingest_samples_total",
			"samples accepted into the store via /write"),
		parseRejects: reg.Counter("sieve_ingest_parse_rejects_total",
			"/write payloads rejected by the line-protocol parser"),
		reservedRejects: reg.Counter("sieve_ingest_reserved_rejects_total",
			"/write payloads rejected for targeting the reserved self-telemetry component"),
		storageErrors: reg.Counter("sieve_ingest_storage_errors_total",
			"/write requests failed by the storage engine (WAL append/fsync)"),

		remoteWriteSeconds: reg.Histogram("sieve_http_remote_write_seconds",
			"POST /api/v1/write request latency (read + snappy + proto + map + store)", nil),
		remoteIngestSamples: reg.Counter("sieve_remote_write_samples_total",
			"samples accepted into the store via /api/v1/write"),
		remoteSnappyRejects: reg.Counter("sieve_remote_write_snappy_rejects_total",
			"/api/v1/write payloads rejected by the snappy decoder (400)"),
		remoteProtoRejects: reg.Counter("sieve_remote_write_proto_rejects_total",
			"/api/v1/write payloads rejected by the protobuf decoder (400)"),
		remoteMappingRejects: reg.Counter("sieve_remote_write_mapping_rejects_total",
			"/api/v1/write payloads rejected by label mapping or timestamp bounds (400)"),
		remoteSizeRejects: reg.Counter("sieve_remote_write_size_rejects_total",
			"/api/v1/write payloads rejected for compressed or decompressed size (413)"),
		remoteLimitRejects: reg.Counter("sieve_remote_write_sample_limit_rejects_total",
			"/api/v1/write payloads rejected for exceeding the per-request sample limit (429)"),
		remoteDroppedNonFinite: reg.Counter("sieve_remote_write_dropped_nonfinite_total",
			"non-finite remote-write sample values dropped (Prometheus staleness markers)"),

		rangePushdown: reg.Histogram("sieve_query_range_pushdown_seconds",
			"GET /query_range latency for push-down aggregations (min/max/count/rate)", nil),
		rangeDecode: reg.Histogram("sieve_query_range_decode_seconds",
			"GET /query_range latency for decode aggregations (sum/avg)", nil),
		rangeRaw: reg.Histogram("sieve_query_range_raw_seconds",
			"GET /query_range latency for raw point reads", nil),

		cycleSeconds: reg.Histogram("sieve_pipeline_cycle_seconds",
			"whole online pipeline cycle duration", nil),
		assembleSeconds: reg.Histogram("sieve_pipeline_assemble_seconds",
			"pipeline dataset-assembly stage duration", nil),
		reduceSeconds: reg.Histogram("sieve_pipeline_reduce_seconds",
			"pipeline metric-reduction stage duration", nil),
		depsSeconds: reg.Histogram("sieve_pipeline_deps_seconds",
			"pipeline dependency-identification stage duration", nil),
		marshalSeconds: reg.Histogram("sieve_pipeline_marshal_seconds",
			"artifact encode duration: once per published generation, on its first GET /artifact", nil),
		pipelineRuns: reg.Counter("sieve_pipeline_runs_total",
			"completed pipeline cycles (artifact published)"),
		// No Granger result cache exists any more, so every pair test is
		// computed; the name is the one sievebench's
		// granger.cache_hit_share row reads (bench/pipeline.go) and stays
		// until that row is dropped.
		grangerTests: reg.Counter("sieve_granger_cache_misses_total",
			"Granger pair tests computed"),

		selfScrapes: reg.Counter("sieve_selfscrape_total",
			"self-scrape passes (telemetry written into the store)"),
		selfScrapeSamples: reg.Counter("sieve_selfscrape_samples_total",
			"samples the self-scrape loop wrote under the reserved component"),
		pipeline: telemetry.NewReporter("pipeline", reg.Counter("sieve_pipeline_failures_total",
			"failed pipeline cycles (previous artifact kept)")),
		selfScrape: telemetry.NewReporter("self-scrape", reg.Counter("sieve_selfscrape_errors_total",
			"self-scrape passes that failed to write")),
	}
	t.ring = telemetry.NewTraceRing(64, slowOp, func(tr *telemetry.Trace) {
		slog.Warn("slow operation (entered slow state, retained in /debug/traces)",
			"op", tr.Op, "ms", tr.Millis, "threshold", slowOp)
	})
	t.opWrite = t.ring.Op("write")
	t.opRemoteWrite = t.ring.Op("remote_write")
	t.opRange = t.ring.Op("query_range")
	t.opCycle = t.ring.Op("pipeline_cycle")

	return t
}

// handleMetrics serves the Prometheus text exposition of every
// registered metric.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.store.Registry().WritePrometheus(w)
}

// SelfScrapeOnce flattens the current registry state and writes it into
// the server's own store under the reserved component — the dogfooding
// path: sieved's telemetry becomes ordinary series, queryable through
// /query_range?component=sieve and durable under -data-dir. Histograms
// expand to _count/_sum/_p50/_p99 series; NaN and Inf readings (empty
// histograms) are skipped because the store has no representation for
// them. Returns the number of samples written.
func (s *Server) SelfScrapeOnce() (int, error) {
	ts := s.opts.SelfScrapeClock()
	readings := s.store.Registry().Readings()
	samples := make([]tsdb.Sample, 0, len(readings))
	for _, rd := range readings {
		if math.IsNaN(rd.Value) || math.IsInf(rd.Value, 0) {
			continue
		}
		samples = append(samples, tsdb.Sample{
			Component: tsdb.ReservedComponent,
			// The sieve_ prefix is redundant inside the sieve component.
			Metric: strings.TrimPrefix(rd.Name, "sieve_"),
			T:      ts,
			V:      rd.Value,
		})
	}
	if err := s.tel.selfScrape.Report(s.store.WriteSamples(samples, 0)); err != nil {
		return 0, err
	}
	s.tel.selfScrapes.Inc()
	s.tel.selfScrapeSamples.Add(uint64(len(samples)))
	return len(samples), nil
}

// HealthCheck is one readiness check inside the /healthz body.
type HealthCheck struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// HealthResponse is the GET /healthz (and /readyz) body.
type HealthResponse struct {
	// Status is "ok" when every check passes, "degraded" otherwise.
	// /healthz always answers 200 (liveness: the process serves);
	// /readyz answers 503 while degraded.
	Status string                 `json:"status"`
	Checks map[string]HealthCheck `json:"checks"`
}

// health evaluates the readiness checks: recovery (complete by
// construction once the server answers — New replays blocks and WAL
// before returning), checkpoint health (a store whose checkpoints
// fail accumulates shard memory, and on disk WAL segments, unboundedly), and the
// online loop (stalled when the driver is running but no cycle — not
// even an ErrNoData skip — has completed within 3x the interval).
func (s *Server) health() HealthResponse {
	checks := map[string]HealthCheck{
		"recovery": {OK: true, Detail: "store recovered before serving"},
	}
	cp := s.store.Checkpoints()
	ck := HealthCheck{OK: true}
	if cp.LastError != "" {
		ck.OK = false
		ck.Detail = "checkpoint failing (" +
			strconv.Itoa(cp.Failures) + " failures): " + cp.LastError
	} else if cp.Failures > 0 {
		ck.Detail = "recovered after " + strconv.Itoa(cp.Failures) + " failures"
	}
	checks["checkpoint"] = ck

	// Start stamps the reporter, so the age counts from the driver's start.
	pl := HealthCheck{OK: true}
	if s.loops.Added() == 0 {
		pl.Detail = "driver not started"
	} else if age := time.Since(s.tel.pipeline.Health().Last); age > 3*s.opts.Interval {
		pl.OK = false
		pl.Detail = "online loop stalled: no completed cycle for " +
			age.Round(time.Second).String() + " (interval " + s.opts.Interval.String() + ")"
	}
	checks["pipeline"] = pl

	resp := HealthResponse{Status: "ok", Checks: checks}
	for _, c := range checks {
		if !c.OK {
			resp.Status = "degraded"
		}
	}
	return resp
}

// handleHealthz is the liveness probe: always 200 while the process
// serves, with the readiness detail in the body.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.health())
}

// handleReadyz is the readiness probe: 503 while any check fails.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	w.Header().Set("Content-Type", "application/json")
	if h.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(h)
}

// TracesResponse is the GET /debug/traces body.
type TracesResponse struct {
	// ThresholdMS is the slow-op threshold; operations faster than it
	// are never retained.
	ThresholdMS float64 `json:"threshold_ms"`
	// Total counts traces recorded since startup, including evicted
	// ones.
	Total  uint64             `json:"total"`
	Traces []*telemetry.Trace `json:"traces"`
}

// handleTraces serves the slow-op ring, slowest first. ?n=K bounds the
// count (default: everything retained).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			httpError(w, http.StatusBadRequest, "bad n: %q", v)
			return
		}
		n = parsed
	}
	traces := s.tel.ring.Snapshot(n)
	if traces == nil {
		traces = []*telemetry.Trace{}
	}
	writeJSON(w, TracesResponse{
		ThresholdMS: float64(s.tel.ring.Threshold()) / float64(time.Millisecond),
		Total:       s.tel.ring.Total(),
		Traces:      traces,
	})
}
