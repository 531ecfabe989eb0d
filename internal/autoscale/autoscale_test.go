package autoscale

import (
	"context"
	"strings"
	"testing"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/lab"
	"github.com/sieve-microservices/sieve/internal/loadgen"
)

func scalableSpec() app.Spec {
	return app.Spec{
		Name:   "scaleapp",
		TickMS: 500,
		Components: []app.ComponentSpec{
			{
				Name: "lb", Addr: "10.8.0.1:80", ServiceMS: 1, CapacityPerInstance: 5000,
				Entry: true, Calls: []app.Call{{Target: "api", Prob: 1}},
				Families: []app.Family{
					{Base: "cpu_usage", Driver: app.DriverUtil, Scale: 100, Noise: 0.02},
					{Base: "lb_rate", Driver: app.DriverRate, Noise: 0.02},
				},
			},
			{
				Name: "api", Addr: "10.8.0.2:8080", ServiceMS: 10, CapacityPerInstance: 100,
				Families: []app.Family{
					{Base: "cpu_usage", Driver: app.DriverUtil, Scale: 100, Noise: 0.02},
					{Base: "api_latency_ms", Driver: app.DriverLatency, Noise: 0.02},
				},
			},
		},
	}
}

func TestEngineScalesOutUnderLoadAndInWhenIdle(t *testing.T) {
	a, err := app.New(scalableSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rules := CPUPolicy([]string{"api"}, 80, 10)
	eng, err := NewEngine(a, rules, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng.maxInstances = 5

	// Overload api (capacity 100/s per instance).
	for i := 0; i < 30; i++ {
		a.Step(180)
		eng.Step()
	}
	if got := a.Instances("api"); got < 2 {
		t.Fatalf("instances under overload = %d, want >= 2", got)
	}
	peak := a.Instances("api")

	// Near-zero load: scale back in.
	for i := 0; i < 60; i++ {
		a.Step(1)
		eng.Step()
	}
	if got := a.Instances("api"); got >= peak {
		t.Errorf("instances after idle = %d, want < %d", got, peak)
	}

	// Action log is consistent.
	actions := eng.Actions()
	if len(actions) == 0 {
		t.Fatal("no actions recorded")
	}
	for _, act := range actions {
		if act.Component != "api" || (act.Delta != 1 && act.Delta != -1) {
			t.Errorf("bad action %+v", act)
		}
	}
}

func TestEngineRespectsBoundsAndCooldown(t *testing.T) {
	a, err := app.New(scalableSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rules := []Rule{{
		Target: "api", MetricComponent: "api", Metric: "cpu_usage",
		UpThreshold: 10, DownThreshold: 1,
	}}
	eng, err := NewEngine(a, rules, 10)
	if err != nil {
		t.Fatal(err)
	}
	eng.maxInstances = 2
	for i := 0; i < 50; i++ {
		a.Step(150)
		eng.Step()
	}
	if got := a.Instances("api"); got > 2 {
		t.Errorf("instances = %d, exceeded maxInstances 2", got)
	}
	// With cooldown 10 over 50 ticks, at most ~5 actions are possible.
	if got := len(eng.Actions()); got > 5 {
		t.Errorf("%d actions with cooldown 10 over 50 ticks", got)
	}
}

func TestEngineValidation(t *testing.T) {
	a, err := app.New(scalableSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(nil, CPUPolicy([]string{"api"}, 80, 10), 0); err == nil {
		t.Error("expected error for nil app")
	}
	if _, err := NewEngine(a, nil, 0); err == nil {
		t.Error("expected error for no rules")
	}
	bad := []Rule{{Target: "api", MetricComponent: "api", Metric: "cpu_usage", UpThreshold: 10, DownThreshold: 20}}
	if _, err := NewEngine(a, bad, 0); err == nil {
		t.Error("expected error for inverted thresholds")
	}
	ghost := []Rule{{Target: "ghost", MetricComponent: "api", Metric: "cpu_usage", UpThreshold: 20, DownThreshold: 10}}
	if _, err := NewEngine(a, ghost, 0); err == nil {
		t.Error("expected error for unknown target")
	}
}

func TestSievePolicyFromArtifact(t *testing.T) {
	spec := scalableSpec()
	// Give api headroom so latency varies with load instead of pinning at
	// the saturation cap (which would carry no Granger signal).
	spec.Components[1].CapacityPerInstance = 5000
	a, err := app.New(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	art, _, err := lab.Run(context.Background(), a, loadgen.Random(3, 200, 500, 4000), lab.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	targets := []string{"lb", "api"}
	rules, err := SievePolicy(art, targets, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := art.Graph.MostFrequentMetric()
	if len(rules) != len(targets) {
		t.Fatalf("%d rules for %d targets", len(rules), len(targets))
	}
	for i, r := range rules {
		if r.Target != targets[i] {
			t.Errorf("rule %d targets %q, want %q", i, r.Target, targets[i])
		}
		if r.MetricComponent+"/"+r.Metric != key {
			t.Errorf("rule %d guided by %s/%s, want %s", i, r.MetricComponent, r.Metric, key)
		}
		if r.UpThreshold != 100 || r.DownThreshold != 50 {
			t.Errorf("thresholds not propagated: %+v", r)
		}
	}
	if _, err := SievePolicy(nil, targets, 1, 0); err == nil {
		t.Error("expected error for nil artifact")
	}
}

func TestSLATracker(t *testing.T) {
	tr := NewSLATracker(1000, 4)
	// Window 1: all fast -> no violation.
	for i := 0; i < 4; i++ {
		tr.Observe(100)
	}
	// Window 2: slow tail -> p90 over threshold.
	tr.Observe(100)
	tr.Observe(2000)
	tr.Observe(2000)
	tr.Observe(2000)
	if tr.Samples() != 2 {
		t.Fatalf("samples = %d, want 2", tr.Samples())
	}
	if tr.Violations() != 1 {
		t.Errorf("violations = %d, want 1", tr.Violations())
	}
}

func TestRefineThresholds(t *testing.T) {
	// Latency crosses the SLA when the metric passes ~800.
	var metric, lat []float64
	for v := 100.0; v <= 1500; v += 100 {
		metric = append(metric, v)
		if v <= 800 {
			lat = append(lat, 500)
		} else {
			lat = append(lat, 1500)
		}
	}
	up, down, err := RefineThresholds(metric, lat, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if up < 600 || up > 700 {
		t.Errorf("up = %g, want ~640 (80%% of 800, the early-trigger margin)", up)
	}
	if down >= up || down <= 0 {
		t.Errorf("down = %g vs up %g", down, up)
	}
	if _, _, err := RefineThresholds(nil, nil, 1000); err == nil {
		t.Error("expected error for empty calibration")
	}
	// SLA never held: falls back to the minimum.
	up, _, err = RefineThresholds([]float64{500, 300, 400}, []float64{2000, 2000, 2000}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if up > 300 {
		t.Errorf("fallback up = %g, want <= min observed 300", up)
	}
	// A signal level that is not positive admits no band with down < up;
	// the last row is a counter, which a probe reads as 0 on its first
	// read, in a calibration where the SLA never held.
	for _, c := range []struct{ metric, lat []float64 }{
		{[]float64{0, 0, 0}, []float64{500, 500, 500}},
		{[]float64{-4, -2}, []float64{500, 500}},
		{[]float64{0, 5, 3}, []float64{2000, 2000, 2000}},
	} {
		up, down, err := RefineThresholds(c.metric, c.lat, 1000)
		if err == nil || !strings.Contains(err.Error(), "calibration") {
			t.Errorf("RefineThresholds(%v, %v) = (%g, %g, %v), want a calibration error", c.metric, c.lat, up, down, err)
		}
	}
}
