package app

import (
	"slices"
	"strings"
	"testing"

	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/trace"
	"github.com/sieve-microservices/sieve/internal/tsdb"
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

	// Names the line protocol cannot carry are refused by name, before a
	// capture steps the whole load only to fail at its first scrape.
	for _, tc := range []struct {
		what string
		edit func(cs *ComponentSpec)
		want string
	}{
		{"empty component", func(cs *ComponentSpec) { cs.Name = "" }, `""`},
		{"component with '/'", func(cs *ComponentSpec) { cs.Name = "web/x" }, `"web/x"`},
		{"component with ','", func(cs *ComponentSpec) { cs.Name = "web,x" }, `"web,x"`},
		{"component with newline", func(cs *ComponentSpec) { cs.Name = "web\nx" }, `"web\nx"`},
		{"reserved component", func(cs *ComponentSpec) { cs.Name = tsdb.ReservedComponent }, `"` + tsdb.ReservedComponent + `"`},
		{"empty metric", func(cs *ComponentSpec) { cs.Families[0].Base = "" }, `""`},
		{"metric with space", func(cs *ComponentSpec) { cs.Families[0].Base = "lb rate" }, `"lb rate"`},
		{"variant with newline", func(cs *ComponentSpec) { cs.Families[0].Variants = []string{"ok", "p\n95"} }, `"lb_rate_p\n95"`},
		{"constant with space", func(cs *ComponentSpec) { cs.Constants = map[string]float64{"lb version": 1} }, `"lb version"`},
	} {
		bad = miniSpec()
		tc.edit(&bad.Components[0]) // "lb": no component calls it
		_, err := New(bad, 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New error %v, want one naming %s", tc.what, err, tc.want)
		}
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
	db := a.Registry("db")
	if _, ok := db.Read("db_ok_path"); !ok {
		t.Error("healthy run must create db_ok_path")
	}
	if _, ok := db.Read("db_err_path"); ok {
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
	db = b.Registry("db")
	if _, ok := db.Read("db_ok_path"); ok {
		t.Error("faulty run must not create db_ok_path")
	}
	if _, ok := db.Read("db_err_path"); !ok {
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
		cur := readKind(t, a, "api", "api_requests_total", true)
		if cur < prev {
			t.Fatalf("counter decreased: %g -> %g", prev, cur)
		}
		prev = cur
	}
	if prev <= 0 {
		t.Error("counter never advanced")
	}
	// Gauges follow their drivers.
	if got := readKind(t, a, "lb", "lb_rate", false); got < 80 || got > 120 {
		t.Errorf("lb_rate = %g, want ~100", got)
	}
	// Constants exported.
	if got := readKind(t, a, "lb", "lb_version", false); got != 1 {
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
			out = append(out, readKind(t, a, "api", "api_latency_mean", false))
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
	var calls [][2]string
	for _, e := range g.Edges() {
		calls = append(calls, [2]string{e.Caller, e.Callee})
	}
	if want := [][2]string{{"api", "db"}, {"lb", "api"}}; !slices.Equal(calls, want) {
		t.Errorf("call edges %v, want %v (no reversed edge)", calls, want)
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

// readKind returns a metric's value, failing the test unless the metric
// exists with the given kind.
func readKind(t *testing.T, a *App, component, metric string, counter bool) float64 {
	t.Helper()
	rd, ok := a.Registry(component).Read(metric)
	if !ok || rd.Counter != counter {
		t.Fatalf("%s/%s = %+v, %v; want an exported metric with Counter %v", component, metric, rd, ok, counter)
	}
	return rd.Value
}
