package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"testing"
)

// TestSmokeAllWorkloads runs the four workloads at 1/30 scale against a
// real sieved child, traced, and asserts that the run is correct, that
// every end-to-end metric is printed by every workload, and that every
// declared per-layer metric is printed by at least one.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives a real sieved")
	}
	e, err := newEnv(0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	cfg := runConfig{seed: 1, seconds: 1, trace: true}
	row := regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+) +\S+ +(\S+)`)
	printed := map[string]bool{}
	for _, w := range workloads {
		r, err := runWorkload(e, cfg, w.Name)
		if err != nil {
			t.Fatal(err)
		}
		var table bytes.Buffer
		r.printTable(&table, cfg.trace)
		if !r.correct() {
			t.Errorf("workload %s is incorrect:\n%s", w.Name, table.String())
		}
		here := map[string]string{}
		for _, m := range row.FindAllStringSubmatch(table.String(), -1) {
			here[m[1]] = m[2]
			printed[m[1]] = true
		}
		for _, d := range endToEnd {
			if here[d.Name] != d.Unit {
				t.Errorf("workload %s: end-to-end metric %s printed with unit %q, want %q", w.Name, d.Name, here[d.Name], d.Unit)
			}
			if v := r.get(d.Name); !(v > 0) {
				t.Errorf("workload %s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, v)
			}
		}
		if !bytes.Contains(table.Bytes(), []byte("\nops_attempted ")) || !bytes.Contains(table.Bytes(), []byte("\nops_failed ")) {
			t.Errorf("workload %s: ops_attempted and ops_failed not printed", w.Name)
		}
		for _, trace := range []bool{false, true} {
			line, err := r.jsonLine(trace)
			if err != nil {
				t.Fatal(err)
			}
			var obj struct {
				Correct   *bool                      `json:"correct"`
				Attempted *int64                     `json:"attempted"`
				Failed    *int64                     `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &obj); err != nil {
				t.Fatal(err)
			}
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
			}
			if obj.Correct == nil || obj.Attempted == nil || obj.Failed == nil || len(obj.Metrics) != want {
				t.Errorf("workload %s trace=%v: result object %s", w.Name, trace, line)
			}
		}
	}
	for _, d := range perLayer {
		if !printed[d.Name] {
			t.Errorf("per-layer metric %s was printed by no workload", d.Name)
		}
	}
}
