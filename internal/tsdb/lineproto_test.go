package tsdb

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestParseLineProtocolRoundtrip pins the decode of a well-formed batch.
func TestParseLineProtocolRoundtrip(t *testing.T) {
	in := []Sample{
		{Component: "web", Metric: "cpu_usage", T: 500, V: 0.25},
		{Component: "redis", Metric: "ops_total", T: 1000, V: 12345},
		{Component: "a b", Metric: "latency_p90", T: -3, V: -1.5e-9},
	}
	got, err := ParseLineProtocol(EncodeLineProtocol(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, in)
	}
}

// TestParseLineProtocolMalformed drives every malformed-line class the
// server may see on the wire: each must produce an error naming the
// offending line, never a panic and never silently stored garbage.
func TestParseLineProtocolMalformed(t *testing.T) {
	cases := []struct {
		name, payload, wantLine string
	}{
		{"no tag separator", "webvalue=1 500", "line 1"},
		{"missing metric tag", "web,m=cpu value=1 500", "line 1"},
		{"missing field section", "web,metric=cpu", "line 1"},
		{"missing value field", "web,metric=cpu v=1 500", "line 1"},
		{"missing timestamp", "web,metric=cpu value=1", "line 1"},
		{"bad value", "web,metric=cpu value=abc 500", "line 1"},
		{"NaN value", "web,metric=cpu value=NaN 500", "line 1"},
		{"negative NaN value", "web,metric=cpu value=-nan 500", "line 1"},
		{"positive infinity", "web,metric=cpu value=+Inf 500", "line 1"},
		{"negative infinity", "web,metric=cpu value=-Inf 500", "line 1"},
		{"bad timestamp", "web,metric=cpu value=1 12h", "line 1"},
		{"float timestamp", "web,metric=cpu value=1 1.5", "line 1"},
		{"timestamp overflow", "web,metric=cpu value=1 99999999999999999999", "line 1"},
		{"nanosecond timestamp", "web,metric=cpu value=1 1700000000000000000", "line 1"},
		{"empty component", ",metric=cpu value=1 500", "line 1"},
		{"empty metric", "web,metric= value=1 500", "line 1"},
		{"slash in component", "a/b,metric=c value=1 1", "line 1"},
		{"slash into the reserved component", "sieve/x,metric=y value=1 1", "line 1"},
		{"error on second line", "web,metric=cpu value=1 500\ngarbage", "line 2"},
		{"blank lines still counted", "\n\nweb,metric=cpu value=1\n", "line 3"},
		{"extra field garbage", "web,metric=cpu value=1 500 700", "line 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			samples, err := ParseLineProtocol([]byte(tc.payload))
			if err == nil {
				t.Fatalf("ParseLineProtocol(%q) = %+v, want error", tc.payload, samples)
			}
			if !strings.Contains(err.Error(), tc.wantLine) {
				t.Fatalf("error %q does not name %s", err, tc.wantLine)
			}
		})
	}
}

// TestParseLineProtocolBlankAndEmpty pins the tolerated degenerate
// payloads: empty bodies and blank lines decode to zero samples.
func TestParseLineProtocolBlankAndEmpty(t *testing.T) {
	for _, payload := range []string{"", "\n", "\n\n\n"} {
		got, err := ParseLineProtocol([]byte(payload))
		if err != nil {
			t.Fatalf("ParseLineProtocol(%q): %v", payload, err)
		}
		if len(got) != 0 {
			t.Fatalf("ParseLineProtocol(%q) = %+v, want none", payload, got)
		}
	}
}

// FuzzParseLineProtocol feeds arbitrary bytes to the parser. Three
// invariants: never panic, no accepted component contains '/' (so a
// series key splits back into the component and metric it was built
// from), and any accepted batch must survive an encode/decode roundtrip
// unchanged (the parser and encoder agree on the wire format, and no
// non-finite value sneaks through).
func FuzzParseLineProtocol(f *testing.F) {
	f.Add([]byte("web,metric=cpu value=0.5 500\n"))
	f.Add([]byte("web,metric=cpu value=NaN 500\n"))
	f.Add([]byte("a,metric=b value=1 2\na,metric=b value=3 4\n"))
	f.Add([]byte(",metric= value= \n"))
	f.Add([]byte("x,metric=y value=1e309 7"))
	f.Add([]byte("\n\nweb,metric=cpu value=-2 -9\n"))
	f.Add([]byte("a/b,metric=c/d value=1 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := ParseLineProtocol(data)
		if err != nil {
			return
		}
		for _, s := range samples {
			if s.Component == "" || s.Metric == "" {
				t.Fatalf("accepted sample with empty name: %+v", s)
			}
			if strings.Contains(s.Component, "/") {
				t.Fatalf("accepted component with '/': %+v", s)
			}
			if c, m := splitKey(s.Key()); c != s.Component || m != s.Metric {
				t.Fatalf("key %q splits into %q/%q", s.Key(), c, m)
			}
		}
		again, err := ParseLineProtocol(EncodeLineProtocol(samples))
		if err != nil {
			t.Fatalf("re-encoded batch failed to parse: %v", err)
		}
		if !reflect.DeepEqual(samples, again) {
			t.Fatalf("roundtrip mismatch:\nfirst  %+v\nsecond %+v", samples, again)
		}
	})
}

// parseLineProtocolSplit is the pre-optimization parser (strings.Split
// per payload, one substring per line), kept as the benchmark baseline
// so the allocation win of the index-based scanner stays measured.
func parseLineProtocolSplit(data []byte) ([]Sample, error) {
	var out []Sample
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if line == "" {
			continue
		}
		s, err := parseLineSplit(line)
		if err != nil {
			return nil, fmt.Errorf("tsdb: line %d: %w", i+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parseLineSplit(line string) (Sample, error) {
	var s Sample
	comma := strings.IndexByte(line, ',')
	if comma < 0 {
		return s, fmt.Errorf("missing tag separator in %q", line)
	}
	s.Component = line[:comma]
	rest := line[comma+1:]
	if !strings.HasPrefix(rest, "metric=") {
		return s, fmt.Errorf("missing metric tag in %q", line)
	}
	rest = rest[len("metric="):]
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return s, fmt.Errorf("missing field section in %q", line)
	}
	s.Metric = rest[:sp]
	rest = rest[sp+1:]
	if !strings.HasPrefix(rest, "value=") {
		return s, fmt.Errorf("missing value field in %q", line)
	}
	rest = rest[len("value="):]
	sp = strings.IndexByte(rest, ' ')
	if sp < 0 {
		return s, fmt.Errorf("missing timestamp in %q", line)
	}
	v, err := strconv.ParseFloat(rest[:sp], 64)
	if err != nil {
		return s, fmt.Errorf("bad value: %w", err)
	}
	t, err := strconv.ParseInt(rest[sp+1:], 10, 64)
	if err != nil {
		return s, fmt.Errorf("bad timestamp: %w", err)
	}
	if s.Component == "" || s.Metric == "" {
		return s, fmt.Errorf("empty component or metric in %q", line)
	}
	s.V = v
	s.T = t
	return s, nil
}

// benchPayload builds a realistic scrape batch: 1000 lines across 50
// components x 20 metrics.
func benchPayload() []byte {
	var samples []Sample
	for c := 0; c < 50; c++ {
		for m := 0; m < 20; m++ {
			samples = append(samples, Sample{
				Component: fmt.Sprintf("component-%02d", c),
				Metric:    fmt.Sprintf("metric_%02d_total", m),
				T:         int64(c*20+m) * 500,
				V:         float64(c) * 1.25e3 / float64(m+1),
			})
		}
	}
	return EncodeLineProtocol(samples)
}

// TestParseLineProtocolMatchesSplitBaseline keeps the optimized parser
// behaviorally identical to the baseline on well-formed input.
func TestParseLineProtocolMatchesSplitBaseline(t *testing.T) {
	payload := benchPayload()
	fast, err := ParseLineProtocol(payload)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := parseLineProtocolSplit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatal("index-based parser disagrees with split baseline")
	}
}

func BenchmarkParseLineProtocol(b *testing.B) {
	payload := benchPayload()
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := ParseLineProtocol(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("split-baseline", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := parseLineProtocolSplit(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
