package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/core"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// Client speaks the sieved HTTP API. It implements tsdb.Writer, so a
// metrics.Collector pointed at a Client ships its scrapes over real HTTP
// instead of into an in-process store — the wiring that lets the bundled
// application simulators drive a sieved server end to end. Every call
// is bounded by the client's 30 s timeout.
type Client struct {
	base string
	hc   *http.Client
}

var _ tsdb.Writer = (*Client)(nil)

// apiError carries the HTTP status of a failed call so callers can
// distinguish "not yet" (404) from real failures, plus the server's
// stored-sample count for partially failed writes.
type apiError struct {
	status int
	msg    string
	stored int
}

func (e *apiError) Error() string { return e.msg }

// NewClient creates a client for the server at baseURL (e.g.
// "http://127.0.0.1:8086").
func NewClient(baseURL string) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: &http.Client{Timeout: 30 * time.Second}}
}

// do issues a request and decodes the 2xx JSON body into out (skipped
// when out is nil); non-2xx responses become errors carrying the
// server's message. hdr entries are set verbatim on the request.
func (c *Client) do(method, path string, hdr map[string]string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var je struct {
			Error  string `json:"error"`
			Stored int    `json:"stored"`
		}
		detail := resp.Status
		if json.Unmarshal(msg, &je) == nil && je.Error != "" {
			detail = je.Error + " (" + resp.Status + ")"
		}
		return &apiError{status: resp.StatusCode, msg: fmt.Sprintf("server: %s %s: %s", method, path, detail), stored: je.Stored}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if h, ok := out.(*http.Header); ok {
		*h = resp.Header.Clone()
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// ackedSamples extracts the stored-sample count from a 2xx write
// response, distinguishing a missing ack header (a proxy or an
// incompatible server swallowed it) from a malformed one (the offending
// value is reported verbatim).
func ackedSamples(h http.Header) (int, error) {
	v := h.Get("X-Sieve-Samples")
	if v == "" {
		return 0, fmt.Errorf("server: missing X-Sieve-Samples ack header")
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("server: malformed X-Sieve-Samples ack header %q: %w", v, err)
	}
	return n, nil
}

// Write ships a line-protocol payload to POST /write and returns the
// number of samples the server stored (tsdb.Writer). The count is
// meaningful alongside a non-nil error: a multi-shard durable server
// can fail partially, and the stored subset is hash-routed — not a
// payload prefix — so the count is for accounting and reconciliation
// (via QueryRange), never a resume cursor.
func (c *Client) Write(payload []byte) (int, error) {
	var h http.Header
	hdr := map[string]string{"Content-Type": "text/plain; charset=utf-8"}
	if err := c.do(http.MethodPost, "/write", hdr, payload, &h); err != nil {
		var ae *apiError
		if errors.As(err, &ae) {
			return ae.stored, err
		}
		return 0, err
	}
	return ackedSamples(h)
}

// PostCallGraph uploads (replacing) the server's component topology.
func (c *Client) PostCallGraph(g *callgraph.Graph) error {
	var edges []CallEdge
	for _, e := range g.Edges() {
		edges = append(edges, CallEdge{Caller: e.Caller, Callee: e.Callee, Calls: e.Calls})
	}
	body, err := json.Marshal(edges)
	if err != nil {
		return err
	}
	return c.do(http.MethodPost, "/callgraph", map[string]string{"Content-Type": "application/json"}, body, nil)
}

// RunPipeline forces one synchronous pipeline run.
func (c *Client) RunPipeline() (*RunInfo, error) {
	var info RunInfo
	if err := c.do(http.MethodPost, "/run", nil, nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Stats fetches the server counters.
func (c *Client) Stats() (*StatsResponse, error) {
	var st StatsResponse
	if err := c.do(http.MethodGet, "/stats", nil, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// QueryRange evaluates a matcher/aggregation query server-side via
// GET /query_range. An empty match returns an empty slice, not an error.
// The query is validated before it is sent, so an inconsistent one (e.g.
// StepMS without Agg, which the wire format could not even express) fails
// here exactly as it would against a local store. To read one series,
// pass its names and keep the result whose Component and Metric equal
// them: the names are globs, and '*' or '?' in one can only widen the
// match.
func (c *Client) QueryRange(q tsdb.RangeQuery) ([]tsdb.SeriesResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	v := url.Values{}
	if q.Component != "" {
		v.Set("component", q.Component)
	}
	if q.Metric != "" {
		v.Set("metric", q.Metric)
	}
	v.Set("from", strconv.FormatInt(q.From, 10))
	v.Set("to", strconv.FormatInt(q.To, 10))
	if q.Agg != tsdb.AggNone {
		v.Set("agg", q.Agg.String())
		v.Set("step", strconv.FormatInt(q.StepMS, 10))
	}
	var resp QueryRangeResponse
	if err := c.do(http.MethodGet, "/query_range?"+v.Encode(), nil, nil, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// ArtifactResult is a fetched artifact: the decoded pipeline output plus
// the envelope metadata.
type ArtifactResult struct {
	Generation  int64
	WindowStart int64
	WindowEnd   int64
	Signal      Signal
	Artifact    *core.Artifact
}

// ErrNoArtifact reports that the server has not completed a pipeline run
// yet.
var ErrNoArtifact = errors.New("server: no artifact published yet")

// Artifact fetches and decodes the latest artifact.
func (c *Client) Artifact() (*ArtifactResult, error) {
	var env ArtifactEnvelope
	if err := c.do(http.MethodGet, "/artifact", nil, nil, &env); err != nil {
		var ae *apiError
		if errors.As(err, &ae) && ae.status == http.StatusNotFound {
			return nil, ErrNoArtifact
		}
		return nil, err
	}
	art, err := core.UnmarshalArtifact(env.Artifact)
	if err != nil {
		return nil, fmt.Errorf("server: decoding artifact: %w", err)
	}
	return &ArtifactResult{
		Generation:  env.Generation,
		WindowStart: env.WindowStart,
		WindowEnd:   env.WindowEnd,
		Signal:      env.Signal,
		Artifact:    art,
	}, nil
}

// ListenAndServe binds addr, starts the background pipeline driver, and
// serves HTTP until ctx is done, then shuts down gracefully. It is the
// cmd/sieved entry point; tests use Handler with httptest instead.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.serveListener(ctx, ln)
}

// Full-request read and keep-alive idle bounds of the listener's
// http.Server; with readHeaderTimeout they cap what one misbehaving
// client can hold.
const (
	readTimeout = 5 * time.Minute
	idleTimeout = 2 * time.Minute
)

func (s *Server) serveListener(ctx context.Context, ln net.Listener) error {
	s.Start(ctx)
	// Header/read/idle timeouts bound what one misbehaving client can
	// hold: without the header timeout a slowloris drips header bytes and
	// keeps the connection (and its goroutine) forever.
	hs := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: s.readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), s.shutdownTimeout)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			// Graceful drain timed out: in-flight requests (e.g. a
			// writer stalled mid-body) are still connected. Force-close
			// them before touching the store — Close() below checkpoints
			// and closes the WAL, and a still-connected writer completing
			// its body after that would write into a closed engine.
			_ = hs.Close()
		}
		<-errc
		// Graceful shutdown: with a durable store, checkpoint remaining
		// memory into a block and close the WAL — only after no
		// connection can deliver another write.
		return s.Close()
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		_ = s.Close()
		return err
	}
}
