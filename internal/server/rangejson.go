package server

import (
	"fmt"
	"math"
	"strconv"

	"github.com/sieve-microservices/sieve/internal/jsonenc"
)

// appendQueryRangeJSON appends the /query_range body: the bytes
// json.NewEncoder(w).Encode(resp) writes, trailing newline included,
// formatted straight into out — a wide raw response is hundreds of
// thousands of points, and reflection plus a second buffered copy was
// half the handler. JSON has no NaN or infinity (an aggregate can
// overflow to one); the first such value fails the whole encoding with
// an error naming it, and out is returned as it was.
func appendQueryRangeJSON(out []byte, resp QueryRangeResponse) ([]byte, error) {
	start := len(out)
	out = append(out, `{"from":`...)
	out = strconv.AppendInt(out, resp.From, 10)
	out = append(out, `,"to":`...)
	out = strconv.AppendInt(out, resp.To, 10)
	out = append(out, `,"agg":`...)
	out = jsonenc.AppendString(out, resp.Agg)
	if resp.StepMS != 0 {
		out = append(out, `,"step_ms":`...)
		out = strconv.AppendInt(out, resp.StepMS, 10)
	}
	out = append(out, `,"results":`...)
	if resp.Results == nil {
		out = append(out, "null"...)
	} else {
		out = append(out, '[')
		for i, r := range resp.Results {
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, `{"component":`...)
			out = jsonenc.AppendString(out, r.Component)
			out = append(out, `,"metric":`...)
			out = jsonenc.AppendString(out, r.Metric)
			out = append(out, `,"points":`...)
			if r.Points == nil {
				out = append(out, "null}"...)
				continue
			}
			out = append(out, '[')
			for j, p := range r.Points {
				if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
					return out[:start], fmt.Errorf("series %s/%s: value at t=%d is %v, which JSON cannot carry", r.Component, r.Metric, p.T, p.V)
				}
				if j > 0 {
					out = append(out, ',')
				}
				out = append(out, `{"T":`...)
				out = strconv.AppendInt(out, p.T, 10)
				out = append(out, `,"V":`...)
				out = jsonenc.AppendFloat(out, p.V)
				out = append(out, '}')
			}
			out = append(out, "]}"...)
		}
		out = append(out, ']')
	}
	return append(out, "}\n"...), nil
}
