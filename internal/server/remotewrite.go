package server

import (
	"io"
	"math"
	"net/http"
	"time"

	"github.com/sieve-microservices/sieve/internal/promremote"
	"github.com/sieve-microservices/sieve/internal/snappy"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// handleRemoteWrite is POST /api/v1/write: the Prometheus remote-write
// 1.0 receiver. The body is a snappy-compressed protobuf WriteRequest;
// labels map to sieve's model via promremote.MapSeries (__name__ →
// metric, Options.RemoteWriteComponentLabel → component, the rest folded
// into the metric name), and the mapped samples feed the exact same
// IngestParsed path as /write — WAL coverage, partial-failure
// accounting, reserved-component enforcement, and window-anchor
// advancement are identical by construction (pinned by the equivalence
// suite in remotewrite_test.go).
//
// Backpressure contract, checked in this order so nothing is stored on a
// reject:
//
//	413 — decompressed size over remoteWriteMaxBytes (read from the
//	      snappy preamble, before any allocation)
//	429 + Retry-After — more than remoteWriteMaxSamples samples
//	400 — undecodable snappy/protobuf, unmappable labels, or a
//	      timestamp past the millisecond range
//	500 — storage errors, as on /write (clients must retry, not drop)
//
// Non-finite sample values (Prometheus staleness markers are NaN) are
// dropped and counted, not rejected: every live Prometheus sends them at
// target churn, and failing the whole request would make the receiver
// unusable against real agents.
func (s *Server) handleRemoteWrite(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sp := s.tel.opRemoteWrite.Start()
	stored := false
	defer func() {
		s.tel.remoteWriteSeconds.ObserveSince(start)
		if !stored {
			s.tel.failedWrites.Inc()
		}
		sp.End()
	}()
	sc, _ := s.rwScratch.Get().(*remoteWriteScratch)
	if sc == nil {
		sc = &remoteWriteScratch{}
	}
	// Every buffer below is stored back on sc before use, so returning
	// the scratch on any exit path keeps whatever growth this request
	// caused.
	defer s.rwScratch.Put(sc)
	body, err := appendReadAll(sc.body[:0], io.LimitReader(r.Body, s.maxBodyBytes+1))
	sc.body = body
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.maxBodyBytes {
		s.tel.remoteSizeRejects.Inc()
		httpError(w, http.StatusRequestEntityTooLarge, "compressed payload exceeds %d bytes", s.maxBodyBytes)
		return
	}
	sp.FieldInt("bytes", int64(len(body)))
	// The preamble carries the decompressed length: enforce the limit
	// before allocating, so a 4-byte bomb claiming 4 GiB costs nothing.
	declen, _, err := snappy.DecodedLen(body)
	if err != nil {
		s.tel.remoteSnappyRejects.Inc()
		httpError(w, http.StatusBadRequest, "snappy: undecodable preamble")
		return
	}
	if int64(declen) > s.remoteWriteMaxBytes {
		s.tel.remoteSizeRejects.Inc()
		httpError(w, http.StatusRequestEntityTooLarge,
			"decompressed payload %d exceeds %d bytes", declen, s.remoteWriteMaxBytes)
		return
	}
	plain, err := snappy.AppendDecode(sc.plain, body)
	if err != nil {
		s.tel.remoteSnappyRejects.Inc()
		httpError(w, http.StatusBadRequest, "snappy: %v", err)
		return
	}
	sc.plain = plain
	req := &sc.req
	if err := promremote.UnmarshalInto(req, plain); err != nil {
		s.tel.remoteProtoRejects.Inc()
		httpError(w, http.StatusBadRequest, "protobuf: %v", err)
		return
	}
	if c := req.SampleCount(); c > s.remoteWriteMaxSamples {
		s.tel.remoteLimitRejects.Inc()
		// Retry-After tells a well-behaved sender to back off and
		// re-shard its batches rather than hammer the same oversized
		// request.
		w.Header().Set("Retry-After", remoteWriteRetryAfter)
		httpError(w, http.StatusTooManyRequests,
			"request carries %d samples, limit %d", c, s.remoteWriteMaxSamples)
		return
	}
	samples := sc.samples[:0]
	if cap(samples) < req.SampleCount() {
		samples = make([]tsdb.Sample, 0, req.SampleCount())
	}
	dropped := 0
	for i := range req.TimeSeries {
		ts := &req.TimeSeries[i]
		component, metric, err := promremote.MapSeries(ts.Labels, s.opts.RemoteWriteComponentLabel)
		if err != nil {
			s.tel.remoteMappingRejects.Inc()
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		for _, smp := range ts.Samples {
			if math.IsNaN(smp.Value) || math.IsInf(smp.Value, 0) {
				dropped++
				continue
			}
			if smp.TimestampMS > tsdb.MaxTimestampMS {
				// Same bound the line-protocol parser enforces: one
				// poisoned timestamp would drag the analysis window into
				// the far future forever.
				s.tel.remoteMappingRejects.Inc()
				httpError(w, http.StatusBadRequest,
					"timestamp %d exceeds the millisecond range", smp.TimestampMS)
				return
			}
			samples = append(samples, tsdb.Sample{
				Component: component, Metric: metric,
				T: smp.TimestampMS, V: smp.Value,
			})
		}
	}
	if dropped > 0 {
		s.tel.remoteDroppedNonFinite.Add(uint64(dropped))
	}
	sc.samples = samples
	// Wire accounting charges the compressed bytes — that is what
	// crossed the network.
	stored = s.storeBatch(w, &sp, s.tel.remoteIngestSamples, samples, len(body), start)
}

// remoteWriteScratch is one request's reusable buffers, pooled on
// Server.rwScratch. The decoded WriteRequest's label/value strings are
// substrings of a per-request conversion inside UnmarshalInto, so reuse
// pins at most one stale request's plaintext until overwritten.
type remoteWriteScratch struct {
	body    []byte
	plain   []byte
	req     promremote.WriteRequest
	samples []tsdb.Sample
}

// appendReadAll reads r to EOF into buf's storage (the pooled form of
// io.ReadAll), returning the filled slice.
func appendReadAll(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
