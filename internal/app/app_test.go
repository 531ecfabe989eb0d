package app

import (
	"slices"
	"testing"

	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/trace"
)

// miniSpec is a three-tier test application: lb -> api -> db.
func miniSpec() Spec {
	return Spec{
		Name:   "mini",
		TickMS: 500,
		Components: []ComponentSpec{
			{
				Name: "lb", Addr: "10.0.0.1:80", ServiceMS: 1, CapacityPerInstance: 1000,
				Entry: true, Calls: []Call{{Target: "api", Prob: 1}},
				Families:  []Family{{Base: "lb_rate", Driver: DriverRate, Noise: 0.01}},
				Constants: map[string]float64{"lb_version": 1},
			},
			{
				Name: "api", Addr: "10.0.0.2:8080", ServiceMS: 10, CapacityPerInstance: 100,
				Calls: []Call{{Target: "db", Prob: 0.5}},
				Families: []Family{
					{Base: "api_latency", Driver: DriverLatency, Variants: []string{"mean", "p95"}, Noise: 0.01},
					{Base: "api_requests_total", Driver: DriverRate, Counter: true},
					{Base: "api_errors", Driver: DriverErrors},
				},
				Fault: &FaultImpact{ErrorRate: 5, LatencyFactor: 2},
			},
			{
				Name: "db", Addr: "10.0.0.3:5432", ServiceMS: 4, CapacityPerInstance: 500,
				Families: []Family{
					{Base: "db_rate", Driver: DriverRate, Noise: 0.01},
					{Base: "db_err_path", Driver: DriverErrors, Phase: PhaseFaultyOnly},
					{Base: "db_ok_path", Driver: DriverRate, Phase: PhaseHealthyOnly},
				},
			},
		},
	}
}

func TestNewValidation(t *testing.T) {
	good := miniSpec()

	bad := good
	bad.TickMS = 0
	if _, err := New(bad, 1); err == nil {
		t.Error("expected error for zero tick")
	}

	bad = good
	bad.Components = nil
	if _, err := New(bad, 1); err == nil {
		t.Error("expected error for empty app")
	}

	bad = miniSpec()
	bad.Components = append(bad.Components, bad.Components[0])
	if _, err := New(bad, 1); err == nil {
		t.Error("expected error for duplicate component")
	}

	bad = miniSpec()
	bad.Components[0].Calls = []Call{{Target: "ghost", Prob: 1}}
	if _, err := New(bad, 1); err == nil {
		t.Error("expected error for unknown call target")
	}

	bad = miniSpec()
	bad.Components[1].CapacityPerInstance = 0
	if _, err := New(bad, 1); err == nil {
		t.Error("expected error for zero capacity")
	}
}

func TestLoadPropagatesWithLag(t *testing.T) {
	a, err := New(miniSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	// Tick 1: only the entry sees load.
	a.Step(100)
	if got := a.comps["lb"].arrival; got != 100 {
		t.Fatalf("lb arrival = %g, want 100", got)
	}
	if got := a.comps["api"].arrival; got != 0 {
		t.Fatalf("api arrival at tick 1 = %g, want 0 (one-tick lag)", got)
	}
	// Tick 2: api sees lb's flow; db not yet.
	a.Step(100)
	if got := a.comps["api"].arrival; got != 100 {
		t.Fatalf("api arrival at tick 2 = %g, want 100", got)
	}
	if got := a.comps["db"].arrival; got != 0 {
		t.Fatalf("db arrival at tick 2 = %g, want 0", got)
	}
	// Tick 3: db sees api's flow halved by call probability.
	a.Step(100)
	if got := a.comps["db"].arrival; got != 50 {
		t.Fatalf("db arrival at tick 3 = %g, want 50", got)
	}
	if a.Now() != 1500 {
		t.Errorf("clock = %d, want 1500", a.Now())
	}
}

func TestLatencyIncludesLaggedDownstream(t *testing.T) {
	a, err := New(miniSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a.Step(100)
	}
	api := a.comps["api"]
	// api latency = own + 0.5 * db latency (lagged). db own latency is at
	// least its 4ms service time, so api.latency must exceed own.
	if api.latency <= api.ownLatency {
		t.Errorf("api latency %g does not include downstream share (own %g)", api.latency, api.ownLatency)
	}
	if a.EntryLatencyMS() <= 0 {
		t.Error("entry latency must be positive under load")
	}
}

func TestScalingReducesUtilizationAndLatency(t *testing.T) {
	a, err := New(miniSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a.Step(90) // api at 90% utilization with one instance
	}
	utilBefore := a.Utilization("api")
	latBefore := a.comps["api"].ownLatency

	if err := a.Scale("api", 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a.Step(90)
	}
	utilAfter := a.Utilization("api")
	latAfter := a.comps["api"].ownLatency

	if utilAfter >= utilBefore/2 {
		t.Errorf("util after scale-out = %g, want well below %g", utilAfter, utilBefore)
	}
	if latAfter >= latBefore {
		t.Errorf("latency after scale-out = %g, want below %g", latAfter, latBefore)
	}
	if a.Instances("api") != 3 {
		t.Errorf("instances = %d, want 3", a.Instances("api"))
	}
	if err := a.Scale("ghost", 2); err == nil {
		t.Error("expected error scaling unknown component")
	}
	if err := a.Scale("api", 0); err != nil {
		t.Fatal(err)
	}
	if a.Instances("api") != 1 {
		t.Error("scale clamps to minimum 1 instance")
	}
}

func TestOverloadProducesErrors(t *testing.T) {
	a, err := New(miniSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		a.Step(250) // api capacity is 100/s
	}
	if got := a.comps["api"].errRate; got <= 0 {
		t.Errorf("overloaded api error rate = %g, want positive", got)
	}
	if got := a.comps["lb"].errRate; got != 0 {
		t.Errorf("underloaded lb error rate = %g, want 0", got)
	}
}

func TestFaultTogglesStateAndMetricPopulation(t *testing.T) {
	a, err := New(miniSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy phase: db_ok_path exists, db_err_path must not.
	for i := 0; i < 5; i++ {
		a.Step(100)
	}
	names := a.Registry("db").Names()
	if !containsStr(names, "db_ok_path") {
		t.Error("healthy run must create db_ok_path")
	}
	if containsStr(names, "db_err_path") {
		t.Error("healthy run must not create db_err_path")
	}

	// Faulty version (fresh app): error-path series appear, healthy-only
	// series never materialize.
	b, err := New(miniSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b.SetFault(true)
	if !b.fault {
		t.Fatal("fault flag lost")
	}
	for i := 0; i < 5; i++ {
		b.Step(100)
	}
	names = b.Registry("db").Names()
	if containsStr(names, "db_ok_path") {
		t.Error("faulty run must not create db_ok_path")
	}
	if !containsStr(names, "db_err_path") {
		t.Error("faulty run must create db_err_path")
	}
	// The api fault impact adds errors and latency.
	if got := b.comps["api"].errRate; got < 5 {
		t.Errorf("faulty api error rate = %g, want >= 5", got)
	}
}

func TestMetricsExportedAndCountersMonotone(t *testing.T) {
	a, err := New(miniSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for i := 0; i < 20; i++ {
		a.Step(100)
		cur := a.Registry("api").Counter("api_requests_total").Value()
		if cur < prev {
			t.Fatalf("counter decreased: %g -> %g", prev, cur)
		}
		prev = cur
	}
	if prev <= 0 {
		t.Error("counter never advanced")
	}
	// Gauges follow their drivers.
	if got := a.Registry("lb").Gauge("lb_rate").Value(); got < 80 || got > 120 {
		t.Errorf("lb_rate = %g, want ~100", got)
	}
	// Constants exported.
	if got := a.Registry("lb").Gauge("lb_version").Value(); got != 1 {
		t.Errorf("constant = %g, want 1", got)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		a, err := New(miniSpec(), 7)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for i := 0; i < 30; i++ {
			a.Step(100 + float64(i))
			out = append(out, a.Registry("api").Gauge("api_latency_mean").Value())
		}
		return out
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("divergence at tick %d: %g vs %g", i, x[i], y[i])
		}
	}
}

func TestTraceEventsYieldCallGraph(t *testing.T) {
	a, err := New(miniSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTracer(4096, nil)
	a.AttachTracer(tr)
	for i := 0; i < 10; i++ {
		a.Step(100)
	}
	g := callgraph.FromSyscallEvents(tr.Events())
	if got := g.Callees("lb"); !slices.Equal(got, []string{"api"}) {
		t.Errorf("lb calls %v, want api only", got)
	}
	if got := g.Callees("api"); !slices.Equal(got, []string{"db"}) {
		t.Errorf("api calls %v, want db only (no reversed edge)", got)
	}
	if got := g.Callees("db"); len(got) != 0 {
		t.Errorf("db calls %v, want nothing (no reversed edge)", got)
	}
}

func TestUnknownComponentAccessors(t *testing.T) {
	a, err := New(miniSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Registry("ghost") != nil {
		t.Error("Registry(ghost) must be nil")
	}
	if a.Instances("ghost") != 0 || a.Utilization("ghost") != 0 {
		t.Error("unknown component accessors must return zero values")
	}
	if len(a.Components()) != 3 || len(a.Registries()) != 3 {
		t.Error("component enumeration wrong")
	}
	if a.Name() != "mini" || a.TickMS() != 500 {
		t.Error("spec accessors wrong")
	}
}

func containsStr(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
