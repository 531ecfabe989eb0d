package sharelatex

import (
	"testing"

	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/trace"
)

func TestSpecBuilds(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.Components()); got != 15 {
		t.Errorf("components = %d, want 15 (LB + web + real-time + 9 services + 3 stores)", got)
	}
}

func TestMetricPopulationNearPaper(t *testing.T) {
	// The paper reports 889 unique metrics for ShareLatex (§6.1.2). The
	// simulator should land in the same ballpark.
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	a.Step(100)
	total := 0
	for _, reg := range a.Registries() {
		total += len(reg.Snapshot())
	}
	if total < 800 || total > 980 {
		t.Errorf("total metric population = %d, want ~889 (800..980)", total)
	}
}

func TestRunExportsHubMetric(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a.Step(200)
	}
	reg := a.Registry("web")
	if reg == nil {
		t.Fatal("web registry missing")
	}
	if _, found := reg.Read(HubMetric); !found {
		t.Fatalf("hub metric %q not exported by web", HubMetric)
	}
}

func TestCallGraphShape(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTracer(1<<16, nil)
	a.AttachTracer(tr)
	for i := 0; i < 20; i++ {
		a.Step(300)
	}
	calls := map[[2]string]bool{}
	for _, e := range callgraph.FromSyscallEvents(tr.Events()).Edges() {
		calls[[2]string{e.Caller, e.Callee}] = true
	}
	for _, edge := range [][2]string{
		{"haproxy", "web"},
		{"haproxy", "real-time"},
		{"web", "doc-updater"},
		{"doc-updater", "mongodb"},
		{"doc-updater", "redis"},
		{"real-time", "redis"},
		{"clsi", "postgresql"},
	} {
		if !calls[edge] {
			t.Errorf("missing call edge %s -> %s", edge[0], edge[1])
		}
	}
	if calls[[2]string{"mongodb", "web"}] {
		t.Error("datastores must not call services")
	}
}

func TestLoadReachesAllComponents(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		a.Step(400)
	}
	for _, name := range a.Components() {
		if a.Utilization(name) <= 0 {
			t.Errorf("component %s saw no load", name)
		}
	}
}
