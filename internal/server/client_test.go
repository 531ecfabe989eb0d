package server

import (
	"errors"
	"net/http"

	"github.com/sieve-microservices/sieve/internal/promremote"
	"github.com/sieve-microservices/sieve/internal/snappy"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// The client halves of the endpoints no command or example drives over
// HTTP live here: the tests reach /api/v1/write through them the way an
// agent would.

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
