package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/core"
	"github.com/sieve-microservices/sieve/internal/parallel"
	"github.com/sieve-microservices/sieve/internal/promremote"
	"github.com/sieve-microservices/sieve/internal/telemetry"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// Options configures a Server.
type Options struct {
	// AppName labels produced artifacts (default "sieved").
	AppName string
	// Shards is the store partition count; 0 means GOMAXPROCS.
	Shards int
	// StepMS is the analysis sampling grid (default 500, the paper's
	// discretization).
	StepMS int64
	// WindowMS is the width of the sliding analysis window: each
	// pipeline run covers the most recent WindowMS of ingested data
	// (default 480 grid steps = 240000 at the default step). New refuses
	// a window of fewer than 64 grid steps: no cycle could ever run.
	WindowMS int64
	// Interval is the cadence of the background pipeline driver started
	// by Start (default 30s).
	Interval time.Duration
	// CallGraph, when non-nil, is the static component topology used to
	// restrict Granger testing. It can also be uploaded (or replaced)
	// at runtime via POST /callgraph. With no topology at all the
	// pipeline still runs, producing an empty dependency graph.
	CallGraph *callgraph.Graph

	// RemoteWriteComponentLabel is the Prometheus label the
	// /api/v1/write receiver maps to sieve's component (default "job";
	// "instance" is the other common choice). The reserved __name__
	// label is always the metric and cannot be chosen here.
	RemoteWriteComponentLabel string

	// Incremental aligns the online pipeline's window ends down to the
	// sampling grid, so consecutive windows slide by whole steps. There
	// is no cross-cycle state: every cycle reads its window from the
	// store either way.
	Incremental bool

	// DataDir, when non-empty, makes the store durable: every write is
	// appended to the store's one CRC-checked WAL under DataDir before it is
	// acknowledged, blocks are files under DataDir, and New recovers the
	// previous life's data (blocks + WAL replay) before the server takes
	// traffic. Empty runs the same store in memory, without a WAL: its
	// blocks are held in memory, and checkpoints, compaction,
	// downsampling and retention work as on disk.
	DataDir string
	// Retention drops blocks whose newest point is more than this much
	// behind the application high-water mark (0 keeps everything): the
	// newest timestamp outside the reserved "sieve" component, so
	// self-scrape's clock never ages application data. Blocks hold both
	// kinds of data and self-telemetry ages with application time:
	// without application writes nothing expires. A positive Retention
	// shorter than the window is refused: the pipeline would read a
	// window whose head retention had dropped.
	Retention time.Duration
	// Fsync is the WAL fsync policy: "interval" (default; background
	// fsync every 200ms), "always" (fsync per write batch), or "never"
	// (leave it to the OS). New refuses any other value. Only meaningful
	// with DataDir: without it there is no WAL.
	Fsync string
	// FlushInterval is the cadence of the background flusher that seals
	// shard memory into blocks (default 60s; negative disables it,
	// leaving checkpoints to shutdown on disk).
	FlushInterval time.Duration
	// CompactInterval is the cadence of the background compactor that
	// merges adjacent small blocks (default 5m; negative disables it).
	// Its first pass runs as soon as the store is open.
	CompactInterval time.Duration
	// Downsample makes compaction write 5m/1h downsampled companions
	// with every block it writes (and rewrite alone a block that lacks
	// them and no merge takes), answering coarse-step aggregated
	// /query_range requests without touching chunk data.
	Downsample bool

	// SelfScrapeInterval, when positive, makes Start also run the
	// self-scrape loop: every interval the server flattens its own
	// telemetry registry and writes it into its own store under the
	// reserved "sieve" component, through the same ingest path as
	// application data — so sieved's health history is queryable via
	// /query_range?component=sieve and durable under DataDir. The online
	// pipeline never analyses the reserved component, whether or not
	// this life or an earlier one over the same DataDir ran the loop
	// (artifacts are unchanged). Both write protocols reject the
	// reserved component whether or not the loop runs. Zero or negative
	// disables the loop.
	SelfScrapeInterval time.Duration
	// SelfScrapeClock stamps self-scrape samples in ingest-time ms
	// (default time.Now().UnixMilli). The pipeline window and retention
	// age by the store's application high-water mark, which no
	// reserved-component sample moves, so skew against application
	// timestamps only moves where the telemetry series land on the time
	// axis; tests inject a deterministic counter.
	SelfScrapeClock func() int64
}

func (o Options) withDefaults() Options {
	if o.AppName == "" {
		o.AppName = "sieved"
	}
	if o.StepMS <= 0 {
		o.StepMS = 500
	}
	if o.WindowMS <= 0 {
		o.WindowMS = 480 * o.StepMS
	}
	if o.Interval <= 0 {
		o.Interval = 30 * time.Second
	}
	if o.RemoteWriteComponentLabel == "" {
		o.RemoteWriteComponentLabel = "job"
	}
	if o.SelfScrapeClock == nil {
		o.SelfScrapeClock = func() int64 { return time.Now().UnixMilli() }
	}
	return o
}

// MinWindowSamples is the fewest grid steps a window must span before
// the pipeline runs: Granger needs a non-trivial series length. New
// refuses a WindowMS/StepMS below it, since no cycle could ever run.
const MinWindowSamples = 64

// Limits nothing configures. The ones a test could only reach by
// holding a connection for seconds, posting tens of MiB or a million
// samples, or a second-long request are copied into the Server at New
// (the slow-op threshold through newServer), where in-package tests
// lower them.
const (
	// maxBodyBytes bounds a single /write payload and a single
	// /api/v1/write compressed body.
	maxBodyBytes = 32 << 20
	// remoteWriteMaxBytes bounds the decompressed size of one
	// /api/v1/write request. The limit is enforced from the snappy
	// preamble before any allocation; over-limit requests get 413.
	remoteWriteMaxBytes = 64 << 20
	// remoteWriteMaxSamples bounds the samples in one /api/v1/write
	// request. Over-limit requests get 429 with Retry-After so senders
	// re-shard instead of hammering.
	remoteWriteMaxSamples = 1_000_000
	// remoteWriteRetryAfter is the Retry-After value, in seconds, of the
	// 429 answering an over-limit remote-write request.
	remoteWriteRetryAfter = "1"
	// readHeaderTimeout bounds how long the listener waits for a
	// request's headers. Without it a single slow-headers client
	// (slowloris) holds a connection — and eventually the whole accept
	// queue — forever.
	readHeaderTimeout = 10 * time.Second
	// shutdownTimeout bounds the graceful drain on shutdown: past it,
	// in-flight connections are force-closed before the store
	// checkpoints, so a stalled writer can never race the final WAL
	// checkpoint.
	shutdownTimeout = 5 * time.Second
	// slowOpThreshold is the latency above which a request or pipeline
	// cycle is retained in the /debug/traces ring and logged once per
	// fast->slow transition.
	slowOpThreshold = time.Second
)

// Server is the sieved daemon: sharded ingestion plus the online
// windowed pipeline.
type Server struct {
	opts  Options
	store *tsdb.Sharded
	mux   *http.ServeMux

	// The constants of the same names; fields so that in-package tests
	// can lower them before the server takes traffic.
	maxBodyBytes          int64
	remoteWriteMaxBytes   int64
	remoteWriteMaxSamples int
	readHeaderTimeout     time.Duration
	shutdownTimeout       time.Duration

	// tel is the self-observability bundle (registry, instruments,
	// reporters, trace ring); always non-nil after New.
	tel *telemetrySet

	// loops runs the driver and self-scrape the first Start adds, until
	// Start's ctx ends or Close stops it.
	loops     *parallel.Loops
	startOnce sync.Once

	// pub is the latest published generation (nil before the first);
	// GET /artifact and /stats load it without any lock.
	pub atomic.Pointer[publication]

	// mu guards the topology.
	mu    sync.RWMutex
	graph *callgraph.Graph

	// runMu serializes pipeline runs (driver tick vs POST /run).
	runMu sync.Mutex

	// rwScratch recycles the remote-write request scratch (body and
	// decompress buffers, decoded WriteRequest, mapped samples) across
	// requests — the per-sample allocation gap vs line protocol was
	// dominated by those four per-request allocations scaling with
	// payload size. Safe to pool: IngestParsed retains nothing (the WAL
	// copies bytes, the shards copy points and build fresh key strings).
	rwScratch sync.Pool

	// rangeBuf recycles /query_range body segment buffers (*[]byte), so a
	// warm handler formats its body without allocating per point.
	rangeBuf sync.Pool
}

// New creates a Server with its backing sharded store. With
// Options.DataDir set the store is durable: New recovers the previous
// life's blocks and WAL before returning, so the server answers
// /query_range identically to the store that was killed. Without it the
// store is the same engine in memory.
func New(opts Options) (*Server, error) {
	return newServer(opts, slowOpThreshold)
}

// newServer is New with the slow-op threshold of the trace ring, which
// the ring is built with.
func newServer(opts Options, slowOp time.Duration) (*Server, error) {
	opts = opts.withDefaults()
	if steps := opts.WindowMS / opts.StepMS; steps < MinWindowSamples {
		return nil, fmt.Errorf("server: window %dms spans %d grid steps of %dms, the pipeline needs %d",
			opts.WindowMS, steps, opts.StepMS, MinWindowSamples)
	}
	if opts.RemoteWriteComponentLabel == promremote.MetricNameLabel {
		return nil, fmt.Errorf("server: RemoteWriteComponentLabel cannot be the reserved %s label", promremote.MetricNameLabel)
	}
	if window := time.Duration(opts.WindowMS) * time.Millisecond; opts.Retention > 0 && opts.Retention < window {
		return nil, fmt.Errorf("server: retention %s is shorter than the %s window, whose head it would drop", opts.Retention, window)
	}
	policy, err := tsdb.ParseFsyncPolicy(opts.Fsync)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	store, err := tsdb.OpenSharded(opts.Shards, tsdb.DurabilityOptions{
		Dir:             opts.DataDir,
		Fsync:           policy,
		FlushInterval:   opts.FlushInterval,
		RetentionMS:     opts.Retention.Milliseconds(),
		CompactInterval: opts.CompactInterval,
		Downsample:      opts.Downsample,
	})
	if err != nil {
		return nil, fmt.Errorf("server: opening store: %w", err)
	}
	s := &Server{
		opts:                  opts,
		store:                 store,
		graph:                 opts.CallGraph,
		maxBodyBytes:          maxBodyBytes,
		remoteWriteMaxBytes:   remoteWriteMaxBytes,
		remoteWriteMaxSamples: remoteWriteMaxSamples,
		readHeaderTimeout:     readHeaderTimeout,
		shutdownTimeout:       shutdownTimeout,
		loops:                 parallel.NewLoops(),
	}
	s.tel = newTelemetrySet(store.Registry(), slowOp)
	s.mux = http.NewServeMux()
	for pattern, handler := range s.routes() {
		s.mux.HandleFunc(pattern, handler)
	}
	return s, nil
}

// routes is the whole HTTP surface New registers, ServeMux pattern to
// handler, pinned by TestRouteSurface to testdata/routes.txt.
func (s *Server) routes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"POST /write":        s.handleWrite,
		"POST /api/v1/write": s.handleRemoteWrite,
		"GET /query_range":   s.handleQueryRange,
		"GET /stats":         s.handleStats,
		"GET /artifact":      s.handleArtifact,
		"POST /callgraph":    s.handleCallGraph,
		"POST /run":          s.handleRun,
		"GET /metrics":       s.handleMetrics,
		"GET /healthz":       s.handleHealthz,
		"GET /readyz":        s.handleReadyz,
		"GET /debug/traces":  s.handleTraces,
	}
}

// Options returns the server's effective configuration: what New was
// given, with every default filled in.
func (s *Server) Options() Options { return s.opts }

// Handler returns the HTTP handler (for tests and embedding). Embedders
// must call Close when done serving: it stops the store's loops and
// flushes a durable store.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the backing sharded store (read-mostly: stats, queries).
func (s *Server) Store() *tsdb.Sharded { return s.store }

// Close stops the loops Start added, waiting for a run in flight, then
// closes the store: its loops stop, and a durable one is flushed and
// closed (final checkpoint: remaining memory is sealed into a block, the
// WAL pruned). Safe to call twice.
// Serve calls it on graceful shutdown.
func (s *Server) Close() error {
	s.loops.Stop()
	return s.store.Close()
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeErrorBody mirrors the historical /write error shape: the stored
// count in header and body alongside the error. A multi-shard durable
// store can fail partially: n samples were stored before the error. The
// stored subset is hash-routed, not a payload prefix, so resending any
// of the payload duplicates points — reconcile via /query_range.
func writeErrorBody(w http.ResponseWriter, status, stored int, err error) {
	w.Header().Set("X-Sieve-Samples", strconv.Itoa(stored))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "stored": stored})
}

// readBody reads a request body of at most maxBodyBytes, answering a
// read failure with 400 and a longer body with 413 (ok false). One byte
// past the limit is read so a body exactly at it is still accepted.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.maxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return nil, false
	}
	if int64(len(body)) > s.maxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "payload exceeds %d bytes", s.maxBodyBytes)
		return nil, false
	}
	return body, true
}

// handleWrite parses the payload itself (rather than delegating to
// store.Write) so rejects are classified — parser vs reserved component
// vs storage — before anything is stored. IngestParsed keeps the
// storage and accounting semantics identical to Write (pinned by
// TestIngestParsedMatchesWrite in internal/tsdb).
func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sp := s.tel.opWrite.Start()
	stored := false
	defer func() {
		s.tel.writeSeconds.ObserveSince(start)
		if !stored {
			s.tel.failedWrites.Inc()
		}
		sp.End()
	}()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if len(body) == 0 {
		httpError(w, http.StatusBadRequest, "empty body")
		return
	}
	sp.FieldInt("bytes", int64(len(body)))
	samples, err := tsdb.ParseLineProtocol(body)
	if err != nil {
		// Parse errors are the client's (400); nothing was stored.
		s.tel.parseRejects.Inc()
		writeErrorBody(w, http.StatusBadRequest, 0, err)
		return
	}
	stored = s.storeBatch(w, &sp, s.tel.ingestSamples, samples, len(body), start)
}

// storeBatch is the tail both write protocols share once their decoder
// has produced samples: the reserved-component reject, IngestParsed, the
// failure-to-status mapping and the ack. It reports whether the whole
// batch was stored; accepted is the protocol's own stored-samples
// counter. The reject holds whether or not self-scrape runs: only
// sieved's own samples may carry process time, which is what keeps every
// other timestamp on the store's application high-water mark.
func (s *Server) storeBatch(w http.ResponseWriter, sp *telemetry.Span, accepted *telemetry.Counter, samples []tsdb.Sample, wireBytes int, start time.Time) bool {
	for i := range samples {
		if samples[i].Component == tsdb.ReservedComponent {
			s.tel.reservedRejects.Inc()
			httpError(w, http.StatusBadRequest,
				"component %q is reserved for self-telemetry", tsdb.ReservedComponent)
			return false
		}
	}
	n, err := s.store.IngestParsed(samples, wireBytes, start)
	sp.FieldInt("samples", int64(n))
	accepted.Add(uint64(n))
	if err != nil {
		// Storage errors are ours (500), even when nothing was stored —
		// a full disk must not read as "malformed payload" to a client
		// that drops 4xx as permanent.
		status := http.StatusBadRequest
		if errors.Is(err, tsdb.ErrStorage) {
			status = http.StatusInternalServerError
			s.tel.storageErrors.Inc()
		}
		writeErrorBody(w, status, n, err)
		return false
	}
	w.Header().Set("X-Sieve-Samples", strconv.Itoa(n))
	w.WriteHeader(http.StatusNoContent)
	return true
}

// QueryRangeResponse is the GET /query_range body: the resolved query
// echo plus one entry per matched series with points in range, sorted by
// series key. Aggregated queries return one point per non-empty bucket,
// T = bucket start.
type QueryRangeResponse struct {
	From    int64               `json:"from"`
	To      int64               `json:"to"`
	Agg     string              `json:"agg"`
	StepMS  int64               `json:"step_ms,omitempty"`
	Results []tsdb.SeriesResult `json:"results"`
}

// handleQueryRange serves the query engine over HTTP: component/metric
// glob matchers, optional aggregation push-down (agg + step), evaluated
// with chunk-skipping reads and per-series fan-out. An empty match — a
// series nobody wrote included — is a 200 with no results: a matcher that
// matches nothing is an answer, not an error.
func (s *Server) handleQueryRange(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sp := s.tel.opRange.Start()
	defer sp.End()
	p := r.URL.Query()
	q, err := tsdb.ParseRangeQuery(
		p.Get("component"), p.Get("metric"),
		p.Get("from"), p.Get("to"),
		p.Get("agg"), p.Get("step"),
		s.store.MaxTime()+1,
	)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Latency split by evaluation strategy: push-down aggregations
	// (min/max/count/rate) ride chunk summaries, sum/avg must decode,
	// raw reads stream points out. The split makes "queries got slow"
	// attributable to the path that regressed.
	defer func() {
		switch q.Agg {
		case tsdb.AggNone:
			s.tel.rangeRaw.ObserveSince(start)
		case tsdb.AggSum, tsdb.AggAvg:
			s.tel.rangeDecode.ObserveSince(start)
		default:
			s.tel.rangePushdown.ObserveSince(start)
		}
	}()
	sp.Field("component", q.Component)
	sp.Field("metric", q.Metric)
	sp.Field("agg", q.Agg.String())
	results, err := s.store.QueryRange(r.Context(), q)
	sp.FieldInt("results", int64(len(results)))
	if err != nil {
		if r.Context().Err() != nil {
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		} else {
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	if results == nil {
		results = []tsdb.SeriesResult{}
	}
	// The body is built whole before the first byte goes out: nothing is
	// on the wire yet when the store or the encoder fails, so either can
	// still choose the status code. A large body is encoded in segments on
	// the worker pool, then written in order.
	segs, err := encodeQueryRange(&s.rangeBuf, QueryRangeResponse{
		From: q.From, To: q.To, Agg: q.Agg.String(), StepMS: q.StepMS,
		Results: results,
	})
	sp.FieldInt("segments", int64(len(segs)))
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	size := 0
	for _, sg := range segs {
		size += len(*sg.buf)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	for _, sg := range segs {
		_, _ = w.Write(*sg.buf) // a client that hung up is not the server's error
		s.rangeBuf.Put(sg.buf)
	}
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	App      string `json:"app"`
	Shards   int    `json:"shards"`
	StepMS   int64  `json:"step_ms"`
	WindowMS int64  `json:"window_ms"`
	DataDir  string `json:"data_dir,omitempty"`
	Durable  bool   `json:"durable"`

	Points          int   `json:"points"`
	Series          int   `json:"series"`
	StorageBytes    int   `json:"storage_bytes"`
	NetworkInBytes  int   `json:"network_in_bytes"`
	NetworkOutBytes int   `json:"network_out_bytes"`
	IngestCPUMS     int64 `json:"ingest_cpu_ms"`
	MaxTimeMS       int64 `json:"max_time_ms"`

	// Checkpoint health: failed attempts since open and the latest
	// failure message ("" while healthy). A growing count means no blocks
	// are being written, so shard memory (and, with a data directory, WAL
	// segments) piles up.
	CheckpointFailures  int    `json:"checkpoint_failures,omitempty"`
	LastCheckpointError string `json:"last_checkpoint_error,omitempty"`

	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
	Samples     int64 `json:"samples"`

	Generation   int64  `json:"generation"`
	PipelineRuns int64  `json:"pipeline_runs"`
	LastError    string `json:"last_error,omitempty"`

	// Incremental echoes Options.Incremental. LastRun carries the most
	// recent run's per-stage elapsed breakdown so cycle-time regressions
	// are attributable.
	Incremental bool     `json:"incremental,omitempty"`
	LastRun     *RunInfo `json:"last_run,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, cp := s.store.Stats(), s.store.Checkpoints()
	// generation and last_run come from one publication, so they agree.
	var generation int64
	var lastRun *RunInfo
	if p := s.pub.Load(); p != nil {
		run := p.info
		generation, lastRun = run.Generation, &run
	}
	// The write handlers observe latency before counting a failure, and
	// failures are read first here: a request caught between the two
	// reads as accepted, never as a negative count.
	failedWrites := int64(s.tel.failedWrites.Value())
	writeRequests := int64(s.tel.writeSeconds.Count() + s.tel.remoteWriteSeconds.Count())
	writeJSON(w, StatsResponse{
		App:                 s.opts.AppName,
		Shards:              s.store.NumShards(),
		StepMS:              s.opts.StepMS,
		WindowMS:            s.opts.WindowMS,
		DataDir:             s.store.DataDir(),
		Durable:             s.store.DataDir() != "",
		Points:              st.Points,
		Series:              st.Series,
		StorageBytes:        st.StorageBytes,
		NetworkInBytes:      st.NetworkInBytes,
		NetworkOutBytes:     st.NetworkOutBytes,
		IngestCPUMS:         st.IngestCPU.Milliseconds(),
		MaxTimeMS:           st.MaxTime,
		CheckpointFailures:  cp.Failures,
		LastCheckpointError: cp.LastError,
		Writes:              writeRequests - failedWrites,
		WriteErrors:         failedWrites,
		Samples:             int64(s.tel.ingestSamples.Value() + s.tel.remoteIngestSamples.Value()),
		Generation:          generation,
		PipelineRuns:        int64(s.tel.pipelineRuns.Value()),
		LastError:           s.tel.pipeline.Health().LastError,
		Incremental:         s.opts.Incremental,
		LastRun:             lastRun,
	})
}

// Signal is the live autoscaling signal derived from the dependency
// graph: the metric appearing in the most Granger relations (§4.1).
type Signal struct {
	Metric    string `json:"metric"`
	Relations int    `json:"relations"`
}

// ArtifactEnvelope is the GET /artifact body: the serialized artifact
// plus the run metadata and the live autoscaling signal.
type ArtifactEnvelope struct {
	Generation  int64           `json:"generation"`
	App         string          `json:"app"`
	WindowStart int64           `json:"window_start_ms"`
	WindowEnd   int64           `json:"window_end_ms"`
	ElapsedMS   int64           `json:"elapsed_ms"`
	Signal      Signal          `json:"signal"`
	Artifact    json.RawMessage `json:"artifact"`
}

// handleArtifact serves the current publication's envelope. It holds
// no server lock: a reader that stops reading holds up nothing but
// itself.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	p := s.pub.Load()
	if p == nil {
		httpError(w, http.StatusNotFound, "no artifact yet: the pipeline has not completed a run")
		return
	}
	body, err := s.artifactBody(p)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding artifact: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // a client that hung up is not the server's error
}

// artifactBody returns p's GET /artifact body, encoding it on the first
// call: the bytes writeJSON writes for p's ArtifactEnvelope. Concurrent
// first callers wait for the one encode; later callers get the same
// bytes. The encode drops the artifact, which nothing reads after it.
func (s *Server) artifactBody(p *publication) ([]byte, error) {
	p.once.Do(func() {
		start := time.Now()
		defer s.tel.marshalSeconds.ObserveSince(start)
		data, err := core.MarshalArtifact(p.art)
		p.art = nil
		if err != nil {
			p.err = err
			return
		}
		// Encode hands the whole envelope to one Write, so buf allocates
		// it once at its own size, which the publication then holds.
		var buf bytes.Buffer
		if p.err = json.NewEncoder(&buf).Encode(ArtifactEnvelope{
			Generation:  p.info.Generation,
			App:         s.opts.AppName,
			WindowStart: p.info.Start,
			WindowEnd:   p.info.End,
			ElapsedMS:   p.info.Elapsed.Milliseconds(),
			Signal:      p.signal,
			Artifact:    data,
		}); p.err == nil {
			p.body = buf.Bytes()
		}
	})
	return p.body, p.err
}

// CallEdge is one edge of an uploaded topology.
type CallEdge struct {
	Caller string `json:"caller"`
	Callee string `json:"callee"`
	Calls  int    `json:"calls"`
}

func (s *Server) handleCallGraph(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var edges []CallEdge
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&edges); err != nil {
		httpError(w, http.StatusBadRequest, "decoding call graph: %v", err)
		return
	}
	// Anything but whitespace after the array is a malformed request, not
	// a topology to install up to the first value.
	if _, err := dec.Token(); err != io.EOF {
		httpError(w, http.StatusBadRequest, "decoding call graph: trailing data after the edge array")
		return
	}
	g := callgraph.New()
	for _, e := range edges {
		n := e.Calls
		if n <= 0 {
			n = 1
		}
		g.AddCall(e.Caller, e.Callee, n)
	}
	s.mu.Lock()
	s.graph = g
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	info, err := s.RunPipelineOnce(r.Context())
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrNoData):
			status = http.StatusConflict
		case r.Context().Err() != nil:
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, "%v", err)
		return
	}
	writeJSON(w, info)
}
