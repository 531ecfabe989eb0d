package server

import (
	"errors"
	"net/http"
	"net/url"
	"strconv"

	"github.com/sieve-microservices/sieve/internal/promremote"
	"github.com/sieve-microservices/sieve/internal/snappy"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// The client halves of the endpoints no command or example drives over
// HTTP live here: the tests reach /api/v1/write and /query_range through
// them the way an agent or a dashboard would.

// WriteSamples encodes and ships decoded samples to POST /write.
func (c *Client) WriteSamples(samples []tsdb.Sample) (int, error) {
	return c.Write(tsdb.EncodeLineProtocol(samples))
}

// WriteRemote ships samples through POST /api/v1/write as a Prometheus
// remote-write 1.0 request (snappy-compressed protobuf), the wire format
// real agents speak. Samples are grouped into one TimeSeries per series
// in first-appearance order, labeled {__name__: metric, job: component};
// point the server's RemoteWriteComponentLabel anywhere other than "job"
// and these writes will be rejected, by design.
func (c *Client) WriteRemote(samples []tsdb.Sample) (int, error) {
	var req promremote.WriteRequest
	index := map[string]int{}
	for _, s := range samples {
		key := s.Key()
		i, ok := index[key]
		if !ok {
			i = len(req.TimeSeries)
			index[key] = i
			req.TimeSeries = append(req.TimeSeries, promremote.TimeSeries{
				Labels: []promremote.Label{
					{Name: promremote.MetricNameLabel, Value: s.Metric},
					{Name: "job", Value: s.Component},
				},
			})
		}
		req.TimeSeries[i].Samples = append(req.TimeSeries[i].Samples,
			promremote.Sample{Value: s.V, TimestampMS: s.T})
	}
	hdr := map[string]string{
		"Content-Type":                      "application/x-protobuf",
		"Content-Encoding":                  "snappy",
		"X-Prometheus-Remote-Write-Version": "0.1.0",
	}
	var h http.Header
	if err := c.do(http.MethodPost, "/api/v1/write", hdr, snappy.Encode(promremote.Marshal(&req)), &h); err != nil {
		var ae *apiError
		if errors.As(err, &ae) {
			return ae.stored, err
		}
		return 0, err
	}
	return ackedSamples(h)
}

// QueryRange evaluates a matcher/aggregation query server-side via
// GET /query_range. An empty match returns an empty slice, not an error.
// The query is validated before it is sent, so an inconsistent one (e.g.
// StepMS without Agg, which the wire format could not even express) fails
// here exactly as it would against a local store.
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
