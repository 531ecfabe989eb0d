package server

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"github.com/sieve-microservices/sieve/internal/jsonenc"
	"github.com/sieve-microservices/sieve/internal/parallel"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// rangeSegmentMinPoints is the fewest points a /query_range body segment
// carries. In BenchmarkQueryRangeEncode two segments of 512 short-decimal
// points encode no faster than one of 1024; two of 2048 beat one of 4096
// by about a quarter.
const rangeSegmentMinPoints = 2048

// rangeSegment is one contiguous run of a response's results, encoded
// into its own pooled buffer. The first segment also carries the body's
// head and the last its tail, so the buffers written in order are the
// whole body.
type rangeSegment struct {
	from, to int // results[from:to]
	buf      *[]byte
	err      error
}

// encodeQueryRange encodes the /query_range body in one segment per
// worker, but never fewer than rangeSegmentMinPoints points per segment:
// a small response, and any at GOMAXPROCS=1, is one segment encoded on
// the calling goroutine.
func encodeQueryRange(pool *sync.Pool, resp QueryRangeResponse) ([]rangeSegment, error) {
	total := 0
	for _, r := range resp.Results {
		total += len(r.Points)
	}
	return encodeQueryRangeSegments(pool, resp, min(parallel.Workers(0), total/rangeSegmentMinPoints))
}

// encodeQueryRangeSegments encodes resp in at most segments runs of about
// equal point count, one goroutine per run (a single run stays on the
// calling goroutine), each into a buffer from pool. The buffers
// concatenated in order are the bytes json.NewEncoder(w).Encode writes,
// trailing newline included — a wide raw response is hundreds of
// thousands of points, and reflection plus a second buffered copy was
// half the handler. JSON has no NaN or infinity (an aggregate can
// overflow to one): the first such value in series order fails the whole
// encoding with an error naming it, every buffer goes back to pool and
// no segment is returned. Every segment runs to its end, so the error is
// the one a single pass would meet first.
func encodeQueryRangeSegments(pool *sync.Pool, resp QueryRangeResponse, segments int) ([]rangeSegment, error) {
	segs := splitRange(resp.Results, segments)
	// No request context: the work is bounded, and a canceled pool would
	// leave segments unencoded. Tasks never fail, so ForEach returns nil.
	_ = parallel.ForEach(context.Background(), len(segs), len(segs), func(_ context.Context, k int) error {
		sg := &segs[k]
		sg.buf, _ = pool.Get().(*[]byte)
		if sg.buf == nil {
			sg.buf = new([]byte)
		}
		out := (*sg.buf)[:0]
		if k == 0 {
			out = appendRangeHead(out, resp)
		}
		out, sg.err = appendRangeSeries(out, resp.Results, sg.from, sg.to)
		if k == len(segs)-1 {
			out = appendRangeTail(out, resp)
		}
		*sg.buf = out
		return nil
	})
	for _, sg := range segs {
		if sg.err != nil {
			for _, sg := range segs {
				pool.Put(sg.buf)
			}
			return nil, sg.err
		}
	}
	return segs, nil
}

// splitRange cuts results into at most segments contiguous runs, cutting
// after the series where a run reaches its share of the points. Every run
// holds at least one series, except the single run of an empty response.
func splitRange(results []tsdb.SeriesResult, segments int) []rangeSegment {
	segments = max(1, min(segments, len(results)))
	total := 0
	for _, r := range results {
		total += len(r.Points)
	}
	segs := make([]rangeSegment, 0, segments)
	from, sum := 0, 0
	// Never cut after the last series: the final run would be empty.
	for i := range results[:max(0, len(results)-1)] {
		sum += len(results[i].Points)
		if len(segs) < segments-1 && sum*segments >= (len(segs)+1)*total {
			segs = append(segs, rangeSegment{from: from, to: i + 1})
			from = i + 1
		}
	}
	return append(segs, rangeSegment{from: from, to: len(results)})
}

// appendRangeHead appends the body up to the first result: the resolved
// query echo and the opening of "results".
func appendRangeHead(out []byte, resp QueryRangeResponse) []byte {
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
		return append(out, "null"...)
	}
	return append(out, '[')
}

// appendRangeTail appends the body after the last result.
func appendRangeTail(out []byte, resp QueryRangeResponse) []byte {
	if resp.Results != nil {
		out = append(out, ']')
	}
	return append(out, "}\n"...)
}

// appendRangeSeries appends results[from:to], each but results[0] after
// its separating comma. On a non-finite value it returns out as it was
// and an error naming the series and timestamp.
func appendRangeSeries(out []byte, results []tsdb.SeriesResult, from, to int) ([]byte, error) {
	start := len(out)
	var ts timestampWriter
	for i := from; i < to; i++ {
		r := &results[i]
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
			out = ts.append(out, p.T)
			out = append(out, `,"V":`...)
			out = jsonenc.AppendFloat(out, p.V)
			out = append(out, '}')
		}
		out = append(out, "]}"...)
	}
	return out, nil
}

// timestampWriter appends decimal timestamps. A response's millisecond
// timestamps share everything above their low six digits for 10⁶ ms
// (almost 17 minutes) at a time, so it keeps the digits of the last
// t / 10⁶ and writes only the low six, two at a time from a table.
// Timestamps below 10⁶, negative ones included, go through
// strconv.AppendInt. The zero value is ready to use.
type timestampWriter struct {
	high   int64    // t / 10⁶ whose digits are cached; 0 (never cached) for none
	digits [13]byte // math.MaxInt64 / 10⁶ has 13 digits
	n      int
}

// twoDigits holds "00" through "99" back to back.
const twoDigits = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

func (w *timestampWriter) append(out []byte, t int64) []byte {
	if t < 1e6 {
		return strconv.AppendInt(out, t, 10)
	}
	high, low := t/1e6, t%1e6
	if high != w.high {
		w.high = high
		w.n = len(strconv.AppendInt(w.digits[:0], high, 10))
	}
	a, b, c := 2*(low/10000), 2*(low/100%100), 2*(low%100)
	return append(append(out, w.digits[:w.n]...),
		twoDigits[a], twoDigits[a+1], twoDigits[b], twoDigits[b+1], twoDigits[c], twoDigits[c+1])
}
