package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repo root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json is what the driver reads; metrics.go is what the harness
// prints. They must name the same workloads and metrics.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", b.Workloads, workloads)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go")
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %v, want %v", b.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths = %v, want %v", b.Paths, want)
	}
}

// The driver refuses a file outside these limits before a single run.
func TestDeclarationsMeetTheDriverContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDecl) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q", d.Name)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, d := range perLayer {
		check(d)
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if b := readBenchmarkJSON(t); b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
}
