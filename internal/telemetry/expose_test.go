package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "total requests")
	c.Add(7)
	r.GaugeFunc("temp", "temperature", func() float64 { return -3.5 })
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP reqs_total total requests\n",
		"# TYPE reqs_total counter\n",
		"reqs_total 7\n",
		"# TYPE temp gauge\n",
		"temp -3.5\n",
		"# TYPE lat_seconds histogram\n",
		"lat_seconds_bucket{le=\"0.1\"} 2\n",
		"lat_seconds_bucket{le=\"1\"} 2\n",
		"lat_seconds_bucket{le=\"+Inf\"} 3\n",
		"lat_seconds_sum 2.1\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint(buf.Bytes()); err != nil {
		t.Fatalf("Lint rejected our own exposition: %v\n%s", err, out)
	}
}

func TestWritePrometheusRunsCollectHooks(t *testing.T) {
	r := NewRegistry()
	var mirrored float64
	r.GaugeFunc("mirrored", "", func() float64 { return mirrored })
	r.OnCollect(func() { mirrored = 99 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(buf.String(), "mirrored 99\n") {
		t.Fatalf("collect hook did not refresh gauge:\n%s", buf.String())
	}
}

func TestWritePrometheusDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "")
	r.Counter("aaa_total", "")
	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("exposition not deterministic")
	}
	if strings.Index(a.String(), "aaa_total") > strings.Index(a.String(), "zzz_total") {
		t.Fatalf("metrics not sorted by name:\n%s", a.String())
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"sample without TYPE", "orphan_total 3\n"},
		{"TYPE after sample", "# TYPE x counter\nx 1\n# TYPE x counter\n"},
		{"bad type name", "# TYPE x widget\nx 1\n"},
		{"bad metric name", "# TYPE 2x counter\n2x 1\n"},
		{"bad value", "# TYPE x counter\nx notanumber\n"},
		{"unquoted label", "# TYPE x counter\nx{a=b} 1\n"},
		{"unterminated label", "# TYPE x counter\nx{a=\"b} 1\n"},
		{
			"non-ascending buckets",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"0.5\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		},
		{
			"non-cumulative buckets",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		},
		{
			"count mismatch",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		},
		{
			"missing +Inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		},
		{
			"missing sum",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		},
	}
	for _, tc := range cases {
		if err := Lint([]byte(tc.text)); err == nil {
			t.Errorf("%s: lint accepted invalid exposition:\n%s", tc.name, tc.text)
		}
	}
}

func TestLintAcceptsValidCorpus(t *testing.T) {
	valid := strings.Join([]string{
		`# HELP up whether the target is up`,
		`# TYPE up gauge`,
		`up 1`,
		`# TYPE reqs_total counter`,
		`reqs_total{method="get",path="/x\"y"} 1027 1395066363000`,
		`reqs_total{method="post"} 3`,
		`# TYPE h histogram`,
		`h_bucket{le="0.05"} 24054`,
		`h_bucket{le="+Inf"} 24588`,
		`h_sum 53423.1`,
		`h_count 24588`,
		``,
	}, "\n")
	if err := Lint([]byte(valid)); err != nil {
		t.Fatalf("lint rejected valid exposition: %v", err)
	}
}
