package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/sieve-microservices/sieve/internal/parallel"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// referenceRangeJSON is the encoding the handler used to produce and the
// append encoder must reproduce byte for byte.
func referenceRangeJSON(t *testing.T, resp QueryRangeResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRangeJSON encodes resp at every segment count from 1 to one past
// its result count, and each concatenation must equal encoding/json.
func checkRangeJSON(t *testing.T, name string, resp QueryRangeResponse) {
	t.Helper()
	want := referenceRangeJSON(t, resp)
	var pool sync.Pool
	for count := 1; count <= len(resp.Results)+1; count++ {
		segs, err := encodeQueryRangeSegments(&pool, resp, count)
		if err != nil {
			t.Fatalf("%s, %d segments: %v", name, count, err)
		}
		if len(segs) < 1 || len(segs) > count {
			t.Fatalf("%s: asked for %d segments, got %d", name, count, len(segs))
		}
		var got []byte
		for _, sg := range segs {
			got = append(got, *sg.buf...)
			pool.Put(sg.buf)
		}
		if string(got) != string(want) {
			t.Fatalf("%s, %d segments: encoder differs from encoding/json\n got %s\nwant %s", name, count, got, want)
		}
	}
}

func TestQueryRangeJSONMatchesEncodingJSON(t *testing.T) {
	pts := func(vs ...float64) []tsdb.Point {
		out := make([]tsdb.Point, len(vs))
		for i, v := range vs {
			out[i] = tsdb.Point{T: int64(i) * 15000, V: v}
		}
		return out
	}
	table := map[string]QueryRangeResponse{
		"empty results": {From: 0, To: 1, Agg: "raw", Results: []tsdb.SeriesResult{}},
		"nil results":   {From: 0, To: 1, Agg: "raw"},
		"step omitted":  {From: -5, To: 5, Agg: "raw", StepMS: 0, Results: []tsdb.SeriesResult{{Component: "c", Metric: "m", Points: pts(1)}}},
		"step present":  {From: math.MinInt64, To: math.MaxInt64, Agg: "avg", StepMS: 60000, Results: []tsdb.SeriesResult{{Component: "c", Metric: "m", Points: pts(1.5)}}},
		"nil points":    {Agg: "max", StepMS: 1, Results: []tsdb.SeriesResult{{Component: "c", Metric: "m"}, {Component: "d", Metric: "m", Points: []tsdb.Point{}}}},
		"names": {Agg: "raw", Results: []tsdb.SeriesResult{
			{Component: "<script>", Metric: "a&b>c", Points: pts(1)},
			{Component: "line\u2028sep\u2029", Metric: `quo"te\back`, Points: pts(2)},
			{Component: "bad\xffutf8", Metric: "tab\tnl\nctl\x01", Points: pts(3)},
			{Component: "", Metric: "日本語/é", Points: pts(4)},
		}},
		"values": {Agg: "raw", Results: []tsdb.SeriesResult{{Component: "c", Metric: "m", Points: pts(
			0, math.Copysign(0, -1), 1e21, 9.99e20, 1e-7, 1e-6, 5e-324, math.MaxFloat64, -math.MaxFloat64,
			9007199254740993, 123456789012345678, 1<<62, 0.1, -12.34, 1e100, 1.7976931348623157e308,
		)}}},
		"timestamps": {Agg: "raw", Results: []tsdb.SeriesResult{{Component: "c", Metric: "m", Points: []tsdb.Point{
			{T: math.MinInt64, V: 1}, {T: -1, V: 2}, {T: 0, V: 3}, {T: math.MaxInt64, V: 4},
		}}}},
	}
	for name, resp := range table {
		checkRangeJSON(t, name, resp)
	}

	rng := rand.New(rand.NewSource(16))
	alphabet := []string{"a", "Z", "0", "-", "_", "/", "{", "=", " ", `"`, `\`, "<", "&", "\n", "é", "\xff", "\u2028"}
	randName := func() string {
		var sb strings.Builder
		for n := rng.Intn(10); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for iter := 0; iter < 300; iter++ {
		resp := QueryRangeResponse{From: rng.Int63() - rng.Int63(), To: rng.Int63(), Agg: randName()}
		if rng.Intn(2) == 0 {
			resp.StepMS = rng.Int63n(1 << 40)
		}
		if rng.Intn(8) > 0 {
			resp.Results = make([]tsdb.SeriesResult, rng.Intn(5))
		}
		for i := range resp.Results {
			r := &resp.Results[i]
			r.Component, r.Metric = randName(), randName()
			if rng.Intn(8) == 0 {
				continue // nil points
			}
			r.Points = make([]tsdb.Point, rng.Intn(20))
			for j := range r.Points {
				var v float64
				switch rng.Intn(4) {
				case 0:
					v = float64(rng.Int63n(1 << 50)) // counters
				case 1:
					v = math.Round(rng.NormFloat64()*1e4) / 100 // two-decimal gauges
				case 2:
					v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
				default:
					for {
						if v = math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
							break
						}
					}
				}
				r.Points[j] = tsdb.Point{T: rng.Int63() - rng.Int63(), V: v}
			}
		}
		checkRangeJSON(t, fmt.Sprintf("random %d", iter), resp)
	}
}

func TestQueryRangeJSONRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := QueryRangeResponse{Agg: "sum", StepMS: 1000, Results: []tsdb.SeriesResult{
			{Component: "ok", Metric: "m", Points: []tsdb.Point{{T: 0, V: 1}}},
			{Component: "web", Metric: "bytes", Points: []tsdb.Point{{T: 0, V: 1}, {T: 1000, V: v}}},
		}}
		out, err := appendRangeSeries([]byte("keep"), resp.Results, 0, len(resp.Results))
		if err == nil {
			t.Fatalf("%v: encoded to %s", v, out)
		}
		if string(out) != "keep" {
			t.Errorf("%v: buffer left as %q", v, out)
		}
		if msg := err.Error(); !strings.Contains(msg, "web/bytes") || !strings.Contains(msg, "t=1000") {
			t.Errorf("%v: error does not name series and bucket: %s", v, msg)
		}
		if _, jerr := json.Marshal(resp); jerr == nil {
			t.Errorf("%v: encoding/json accepts what the encoder rejects", v)
		}

		// A second non-finite value in a later series: at every segment
		// count the error names the earlier one, and no segment is
		// returned. At two segments the two values lie in different ones.
		resp.Results = append(resp.Results,
			tsdb.SeriesResult{Component: "ok", Metric: "n", Points: []tsdb.Point{{T: 0, V: 2}}},
			tsdb.SeriesResult{Component: "zz", Metric: "late", Points: []tsdb.Point{{T: 0, V: v}, {T: 1000, V: 3}}},
		)
		if segs := splitRange(resp.Results, 2); len(segs) != 2 || segs[0].to < 2 || segs[0].to > 3 {
			t.Fatalf("two segments split as %+v; want web/bytes and zz/late apart", segs)
		}
		var pool sync.Pool
		for count := 1; count <= len(resp.Results)+1; count++ {
			segs, err := encodeQueryRangeSegments(&pool, resp, count)
			if err == nil || segs != nil {
				t.Fatalf("%v, %d segments: returned %d segments, error %v", v, count, len(segs), err)
			}
			if msg := err.Error(); !strings.Contains(msg, "web/bytes") || !strings.Contains(msg, "t=1000") {
				t.Errorf("%v, %d segments: error does not name the earlier series: %s", v, count, msg)
			}
		}
	}
}

// TestQueryRangeNonFiniteAggregate drives the overflow through plain
// HTTP: two finite writes whose sum is +Inf. The answer used to be a 200
// with an empty body (encoding/json's error was dropped after the header
// went out); it must be an error status with a JSON error body.
func TestQueryRangeNonFiniteAggregate(t *testing.T) {
	_, hs, c := newTestServer(t, Options{Shards: 2})
	if _, err := c.Write(tsdb.EncodeLineProtocol([]tsdb.Sample{
		{Component: "web", Metric: "bytes", T: 1000, V: 1e308},
		{Component: "web", Metric: "bytes", T: 2000, V: 1e308},
		{Component: "web", Metric: "fine", T: 1000, V: 1},
	})); err != nil {
		t.Fatal(err)
	}
	get := func(query string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/query_range?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}
	for _, query := range []string{
		"agg=sum&step=10000",
		"component=web&metric=bytes&agg=sum&step=10000&from=0&to=10000",
	} {
		status, ctype, body := get(query)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, body %q; want 422", query, status, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil || ctype != "application/json" {
			t.Fatalf("%s: body %q (%s) is not a JSON error: %v", query, body, ctype, err)
		}
		if !strings.Contains(e.Error, "web/bytes") || !strings.Contains(e.Error, "t=0") {
			t.Errorf("%s: error does not name series and bucket: %s", query, e.Error)
		}
	}
	// The same data is still servable where the answer is finite.
	if status, _, body := get("agg=max&step=10000"); status != http.StatusOK || !strings.Contains(body, "1e+308") {
		t.Fatalf("agg=max: %d %q", status, body)
	}
	if status, _, body := get("metric=fine&agg=sum&step=10000"); status != http.StatusOK || !strings.Contains(body, `"V":1}`) {
		t.Fatalf("finite sum: %d %q", status, body)
	}

	// A response split in two: two series of 2*rangeSegmentMinPoints
	// samples summed in pairs, two workers on any host. web/a and web/z
	// are encoded in different segments, and only web/z's last bucket
	// overflows.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	_, hs, c = newTestServer(t, Options{Shards: 2})
	var samples []tsdb.Sample
	for _, metric := range []string{"a", "z"} {
		for i := 0; i < 2*rangeSegmentMinPoints; i++ {
			v := 1.0
			if metric == "z" && i >= 2*rangeSegmentMinPoints-2 {
				v = 1e308
			}
			samples = append(samples, tsdb.Sample{Component: "web", Metric: metric, T: int64(i) * 1000, V: v})
		}
	}
	if _, err := c.Write(tsdb.EncodeLineProtocol(samples)); err != nil {
		t.Fatal(err)
	}
	const wide = "component=web&step=2000&from=0&to=100000000&agg="
	status, ctype, body := get(wide + "sum")
	var e struct {
		Error string `json:"error"`
	}
	if status != http.StatusUnprocessableEntity || ctype != "application/json" || json.Unmarshal([]byte(body), &e) != nil {
		t.Fatalf("split sum: status %d, body %q (%s); want a 422 JSON error", status, body, ctype)
	}
	if last := fmt.Sprintf("t=%d", int64(2*rangeSegmentMinPoints-2)*1000); !strings.Contains(e.Error, "web/z") || !strings.Contains(e.Error, last) {
		t.Errorf("split sum: error does not name web/z at %s: %s", last, e.Error)
	}
	resp, err := http.Get(hs.URL + "/query_range?" + wide + "max")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("split max: status %d, read error %v", resp.StatusCode, err)
	}
	if resp.ContentLength != int64(len(got)) {
		t.Errorf("split max: Content-Length %d, received %d bytes", resp.ContentLength, len(got))
	}
	var decoded QueryRangeResponse
	if err := json.Unmarshal(got, &decoded); err != nil || len(decoded.Results) != 2 || len(decoded.Results[1].Points) != rangeSegmentMinPoints {
		t.Errorf("split max: body does not decode to two full series: %v", err)
	}
}

// FuzzTimestampWriter holds timestampWriter to strconv.AppendInt: one
// writer fed any int64 sequence (8 little-endian bytes each) appends
// exactly the concatenation of AppendInt over it, whatever its cached
// high digits were left at by the timestamps before.
func FuzzTimestampWriter(f *testing.F) {
	seq := func(ts ...int64) []byte {
		var out []byte
		for _, t := range ts {
			out = binary.LittleEndian.AppendUint64(out, uint64(t))
		}
		return out
	}
	f.Add(seq())
	f.Add(seq(0, 1, 999_999, 1_000_000, 1_000_001, 999_999, 1_999_999, 2_000_000))
	f.Add(seq(-1, -999_999, -1_000_000, -1_000_001, -5, 1_000_000, -1_000_000))
	f.Add(seq(math.MinInt64, math.MaxInt64, math.MinInt64+1, math.MaxInt64-1, math.MaxInt64))
	f.Add(seq(9_999_999_999_999, 10_000_000_000_000, 9_999_999_999_999, 10_000_000_000_001))
	f.Add(seq(999_999_999_999, 1_000_000_000_000, 99_999_999, 100_000_000, 1_000_000_000_000_000_000))
	f.Add(seq(1_700_000_045_000, 1_700_000_030_000, 1_700_000_015_000, 1_699_999_999_999, 1_700_000_000_000))
	ts := make([]int64, 0, 256)
	for t := int64(1_700_000_000_000); len(ts) < cap(ts); t += 15_000 {
		ts = append(ts, t)
	}
	f.Add(seq(ts...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w timestampWriter
		var got, want []byte
		for ; len(data) >= 8; data = data[8:] {
			v := int64(binary.LittleEndian.Uint64(data))
			got = w.append(got, v)
			want = strconv.AppendInt(want, v, 10)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("timestampWriter wrote %s, strconv.AppendInt %s", got, want)
		}
	})
}

// BenchmarkTimestampWriter times one response's timestamps, 15 s apart
// from a current millisecond epoch, through timestampWriter and through
// strconv.AppendInt.
func BenchmarkTimestampWriter(b *testing.B) {
	ts := make([]int64, 4096)
	for i := range ts {
		ts[i] = 1_700_000_000_000 + int64(i)*15_000
	}
	out := make([]byte, 0, 16*len(ts))
	b.Run("timestampWriter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w timestampWriter
			out = out[:0]
			for _, t := range ts {
				out = w.append(out, t)
			}
		}
	})
	b.Run("strconv.AppendInt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out = out[:0]
			for _, t := range ts {
				out = strconv.AppendInt(out, t, 10)
			}
		}
	})
}

// discardWriter is the cheapest ResponseWriter: the allocation test
// below counts the handler's allocations, not a recorder's.
type discardWriter struct {
	h      http.Header
	status int
	n      int
	writes int
}

func (d *discardWriter) Header() http.Header    { return d.h }
func (d *discardWriter) WriteHeader(status int) { d.status = status }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	d.writes++
	return len(p), nil
}

// TestQueryRangeBodyAllocations pins that a warm handler's allocations
// do not grow with the response: the encoder itself allocates nothing
// into a warm buffer, a split body costs the same few allocations per
// segment however many points the segments hold, and a 64x larger raw
// response costs the handler only the store's few extra slice doublings.
func TestQueryRangeBodyAllocations(t *testing.T) {
	resp := QueryRangeResponse{Agg: "raw", Results: []tsdb.SeriesResult{{Component: "comp-0001", Metric: "metric_03"}}}
	for i := 0; i < 4096; i++ {
		resp.Results[0].Points = append(resp.Results[0].Points, tsdb.Point{T: int64(i) * 15000, V: float64(i) * 0.25})
	}
	encode := func(out []byte) []byte {
		out = appendRangeHead(out, resp)
		out, err := appendRangeSeries(out, resp.Results, 0, len(resp.Results))
		if err != nil {
			t.Fatal(err)
		}
		return appendRangeTail(out, resp)
	}
	buf := encode(nil)
	if n := testing.AllocsPerRun(20, func() { encode(buf[:0]) }); n != 0 {
		t.Errorf("encoding 4096 points into a warm buffer: %v allocs, want 0", n)
	}

	// Four series, one sample each second in turn, so the large read is
	// 16384 points across series the encoder can split between.
	s, _, c := newTestServer(t, Options{Shards: 1})
	var samples []tsdb.Sample
	for i := 0; i < 16384; i++ {
		samples = append(samples, tsdb.Sample{Component: "c", Metric: fmt.Sprintf("m%d", i%4), T: int64(i) * 1000, V: float64(i%977) * 0.5})
	}
	if _, err := c.Write(tsdb.EncodeLineProtocol(samples)); err != nil {
		t.Fatal(err)
	}
	const smallTo, largeTo = 256_000, 16_384_000
	// The split encoder on its own, at two segments: AllocsPerRun runs at
	// GOMAXPROCS=1, but a run per segment still gets its own goroutine.
	splitAllocs := func(to int64) float64 {
		res, err := s.store.QueryRange(context.Background(), tsdb.RangeQuery{Component: "c", Metric: "m*", From: 0, To: to})
		if err != nil {
			t.Fatal(err)
		}
		var pool sync.Pool
		return testing.AllocsPerRun(20, func() {
			segs, err := encodeQueryRangeSegments(&pool, QueryRangeResponse{Agg: "raw", Results: res}, 2)
			if err != nil || len(segs) != 2 {
				t.Fatalf("%d segments, error %v; want 2", len(segs), err)
			}
			for _, sg := range segs {
				pool.Put(sg.buf)
			}
		})
	}
	// The slack is the handler's below: under -race sync.Pool drops a
	// quarter of its puts, and each miss regrows a buffer by doubling.
	if small, large := splitAllocs(smallTo), splitAllocs(largeTo); large > small+32 {
		t.Errorf("split encoder allocations grow with the response: %v for %d points, %v for 64x more", small, smallTo/1000, large)
	}

	allocs := func(to int64) (float64, int) {
		req := httptest.NewRequest("GET", fmt.Sprintf("/query_range?component=c&metric=m*&from=0&to=%d", to), nil)
		w := &discardWriter{h: http.Header{}}
		n := testing.AllocsPerRun(10, func() {
			*w = discardWriter{h: w.h}
			s.Handler().ServeHTTP(w, req)
			if w.status != 0 && w.status != http.StatusOK {
				t.Fatalf("status %d", w.status)
			}
		})
		return n, w.n
	}
	small, smallBytes := allocs(smallTo)
	large, largeBytes := allocs(largeTo)
	if largeBytes < 50*smallBytes {
		t.Fatalf("responses are %d and %d bytes; the large one should be ~64x", smallBytes, largeBytes)
	}
	if large > small+32 {
		t.Errorf("handler allocations grow with the response: %v for %d bytes, %v for %d bytes", small, smallBytes, large, largeBytes)
	}

	// Outside AllocsPerRun, with two workers on any host, the handler
	// sends the large body in two segments and the small one in one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for to, want := range map[int64]int{smallTo: 1, largeTo: 2} {
		w := &discardWriter{h: http.Header{}}
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", fmt.Sprintf("/query_range?component=c&metric=m*&from=0&to=%d", to), nil))
		if w.writes != want || w.h.Get("Content-Length") != strconv.Itoa(w.n) {
			t.Errorf("to=%d: %d bytes in %d writes, Content-Length %s; want %d writes", to, w.n, w.writes, w.h.Get("Content-Length"), want)
		}
	}
}

// BenchmarkQueryRangeEncode times the /query_range encoder in one segment
// and split across the workers (two at GOMAXPROCS=1, to show the cost of
// a split with no second core), over raw results of 256-point series,
// with short-decimal values (cents, as a dashboard's gauges) and
// long-decimal ones (17 significant digits). The point count where the
// split starts to win is what rangeSegmentMinPoints is set from.
func BenchmarkQueryRangeEncode(b *testing.B) {
	const seriesPoints = 256
	for _, points := range []int{1024, 4096, 16384, 65536} {
		for _, long := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(points)))
			resp := QueryRangeResponse{From: 1_700_000_000_000, To: 1_700_003_600_000, Agg: "raw"}
			for s := 0; s < points/seriesPoints; s++ {
				r := tsdb.SeriesResult{Component: fmt.Sprintf("comp-%04d", s), Metric: "metric_03"}
				for i := 0; i < seriesPoints; i++ {
					v := math.Round(rng.NormFloat64()*1e5) / 100
					if long {
						v = rng.NormFloat64() * 1e3
					}
					r.Points = append(r.Points, tsdb.Point{T: resp.From + int64(i)*15_000, V: v})
				}
				resp.Results = append(resp.Results, r)
			}
			values := map[bool]string{false: "short", true: "long"}[long]
			for _, segments := range []int{1, max(2, parallel.Workers(0))} {
				b.Run(fmt.Sprintf("points=%d/values=%s/segments=%d", points, values, segments), func(b *testing.B) {
					var pool sync.Pool
					size := 0
					for _, sg := range encodeBench(b, &pool, resp, segments) {
						size += len(*sg.buf)
					}
					b.SetBytes(int64(size))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						encodeBench(b, &pool, resp, segments)
					}
				})
			}
		}
	}
}

// encodeBench encodes resp and returns its segments' buffers to pool.
func encodeBench(b *testing.B, pool *sync.Pool, resp QueryRangeResponse, segments int) []rangeSegment {
	segs, err := encodeQueryRangeSegments(pool, resp, segments)
	if err != nil {
		b.Fatal(err)
	}
	for _, sg := range segs {
		pool.Put(sg.buf)
	}
	return segs
}
