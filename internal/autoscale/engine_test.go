package autoscale

import (
	"testing"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/metrics"
)

func TestProbeGaugeSmoothsReadings(t *testing.T) {
	reg := metrics.NewRegistry("c")
	p := NewProbe(reg, "m")

	reg.Set("m", 100)
	first := p.Value()
	if first != 100 {
		t.Fatalf("first read = %g, want seeded EWMA 100", first)
	}
	// A spike must be damped by the EWMA.
	reg.Set("m", 200)
	second := p.Value()
	if second <= 100 || second >= 200 {
		t.Fatalf("smoothed read = %g, want strictly between 100 and 200", second)
	}
	want := probeSmoothing*200 + (1-probeSmoothing)*100
	if second != want {
		t.Errorf("smoothed read = %g, want %g", second, want)
	}
}

func TestProbeCounterYieldsDeltas(t *testing.T) {
	reg := metrics.NewRegistry("c")
	p := NewProbe(reg, "hits_total")

	reg.Add("hits_total", 50)
	if v := p.Value(); v != 0 {
		t.Fatalf("first counter read = %g, want 0 (no baseline yet)", v)
	}
	reg.Add("hits_total", 30)
	v := p.Value()
	if v <= 0 || v > 30 {
		t.Fatalf("delta read = %g, want smoothed positive delta <= 30", v)
	}
}

func TestProbeUnknownMetricReadsZero(t *testing.T) {
	reg := metrics.NewRegistry("c")
	p := NewProbe(reg, "ghost")
	if v := p.Value(); v != 0 {
		t.Errorf("unknown metric read = %g, want 0", v)
	}
}

func TestEngineInstanceBudget(t *testing.T) {
	a, err := app.New(scalableSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rules := CPUPolicy([]string{"api", "lb"}, 5, 1) // trigger-happy
	eng, err := NewEngine(a, rules, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetInstanceBudget(4)
	for i := 0; i < 50; i++ {
		a.Step(450) // overload both components
		eng.Step()
	}
	total := a.Instances("api") + a.Instances("lb")
	if total > 4 {
		t.Fatalf("total instances = %d, exceeds budget 4", total)
	}
	if total < 3 {
		t.Errorf("total instances = %d, budget barely used", total)
	}
}

func TestEngineScaleInIsSlowerThanScaleOut(t *testing.T) {
	a, err := app.New(scalableSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rules := []Rule{{
		Target: "api", MetricComponent: "api", Metric: "cpu_usage",
		UpThreshold: 50, DownThreshold: 5,
	}}
	eng, err := NewEngine(a, rules, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Overload: scale out at the base cooldown cadence.
	for i := 0; i < 40; i++ {
		a.Step(400)
		eng.Step()
	}
	peak := a.Instances("api")
	if peak < 3 {
		t.Fatalf("scale-out too slow: %d instances", peak)
	}
	outActions := len(eng.Actions())

	// Idle: scale-in must be much slower (scaleInCooldownFactor).
	for i := 0; i < 40; i++ {
		a.Step(0.1)
		eng.Step()
	}
	inActions := len(eng.Actions()) - outActions
	if inActions >= outActions {
		t.Errorf("scale-in issued %d actions vs %d scale-outs in the same window; want damped", inActions, outActions)
	}
}
