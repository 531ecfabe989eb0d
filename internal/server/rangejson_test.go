package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

func checkRangeJSON(t *testing.T, name string, resp QueryRangeResponse) {
	t.Helper()
	want := referenceRangeJSON(t, resp)
	got, err := appendQueryRangeJSON([]byte("prefix"), resp)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if string(got) != "prefix"+string(want) {
		t.Fatalf("%s: encoder differs from encoding/json\n got %s\nwant prefix%s", name, got, want)
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
		out, err := appendQueryRangeJSON([]byte("keep"), resp)
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
}

// discardWriter is the cheapest ResponseWriter: the allocation test
// below counts the handler's allocations, not a recorder's.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestQueryRangeBodyAllocations pins that a warm handler's allocations
// do not grow with the response: the encoder itself allocates nothing
// into a warm buffer, and a 64x larger raw response costs the handler
// only the store's few extra slice doublings.
func TestQueryRangeBodyAllocations(t *testing.T) {
	resp := QueryRangeResponse{Agg: "raw", Results: []tsdb.SeriesResult{{Component: "comp-0001", Metric: "metric_03"}}}
	for i := 0; i < 4096; i++ {
		resp.Results[0].Points = append(resp.Results[0].Points, tsdb.Point{T: int64(i) * 15000, V: float64(i) * 0.25})
	}
	buf, err := appendQueryRangeJSON(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := appendQueryRangeJSON(buf[:0], resp); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("encoding 4096 points into a warm buffer: %v allocs, want 0", n)
	}

	s, _, c := newTestServer(t, Options{Shards: 1})
	var samples []tsdb.Sample
	for i := 0; i < 16384; i++ {
		samples = append(samples, tsdb.Sample{Component: "c", Metric: "m", T: int64(i) * 1000, V: float64(i%977) * 0.5})
	}
	if _, err := c.Write(tsdb.EncodeLineProtocol(samples)); err != nil {
		t.Fatal(err)
	}
	allocs := func(to int64) (float64, int) {
		req := httptest.NewRequest("GET", fmt.Sprintf("/query_range?component=c&metric=m&from=0&to=%d", to), nil)
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
	small, smallBytes := allocs(256_000)
	large, largeBytes := allocs(16_384_000)
	if largeBytes < 50*smallBytes {
		t.Fatalf("responses are %d and %d bytes; the large one should be ~64x", smallBytes, largeBytes)
	}
	if large > small+32 {
		t.Errorf("handler allocations grow with the response: %v for %d bytes, %v for %d bytes", small, smallBytes, large, largeBytes)
	}
}
