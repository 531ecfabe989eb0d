package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// measured is one reported value with the number of samples behind it
// (0 when the value is a single reading or a counter delta).
type measured struct {
	value float64
	n     int
}

// result collects one workload run's metrics, operation counts and
// failed output checks.
type result struct {
	workload string
	values   map[string]measured

	attempted int64
	failed    int64
	// checkErrs are output checks that failed; any entry makes the run
	// incorrect.
	checkErrs []string
}

func newResult(workload string) *result {
	return &result{workload: workload, values: map[string]measured{}}
}

// set records a declared metric. Setting an undeclared name is a bug in
// the harness, not a measurement, so it panics.
func (r *result) set(name string, v float64, n int) {
	if _, ok := declared[name]; !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	r.values[name] = measured{value: v, n: n}
}

func (r *result) get(name string) float64 { return r.values[name].value }

// ops adds to the operation counts.
func (r *result) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// checkFailed records a failed output check covering n operations.
func (r *result) checkFailed(n int64, format string, args ...any) {
	r.failed += n
	r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && len(r.checkErrs) == 0 }

// printTable writes the human-readable metric table: every measured
// metric by name with its unit and sample count, end-to-end first.
func (r *result) printTable(w io.Writer, trace bool) {
	fmt.Fprintf(w, "\n== workload %s ==\n", r.workload)
	fmt.Fprintf(w, "ops_attempted %d\nops_failed %d\n", r.attempted, r.failed)
	for _, msg := range r.checkErrs {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", msg)
	}
	section := func(title string, decls []metricDecl) {
		fmt.Fprintf(w, "-- %s --\n", title)
		for _, d := range decls {
			m, ok := r.values[d.Name]
			if !ok {
				continue
			}
			n := ""
			if m.n > 0 {
				n = fmt.Sprintf("  (n=%d)", m.n)
			}
			fmt.Fprintf(w, "%-42s %14s %-10s%s\n", d.Name, formatValue(m.value), d.Unit, n)
		}
	}
	section("end to end (tracing off)", endToEnd)
	title := "per layer (M and C sources; -trace 1 adds T)"
	if trace {
		title = "per layer (M, C and T sources)"
	}
	section(title, perLayer)
}

func formatValue(v float64) string {
	a := math.Abs(v)
	switch {
	case v == math.Trunc(v) && a < 1e15:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.5f", v)
	}
}

// jsonLine renders the driver's result object: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one. A per-layer
// metric the workload does not exercise reads 0; a missing end-to-end
// metric is an error.
func (r *result) jsonLine(trace bool) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	metrics := make(map[string]mv, len(decls))
	var missing []string
	for _, d := range decls {
		m, ok := r.values[d.Name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			if !trace {
				missing = append(missing, d.Name)
			}
			m.value = 0
		}
		metrics[d.Name] = mv{Value: m.value, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("bench: workload %s did not measure end-to-end metric(s) %s", r.workload, strings.Join(missing, ", "))
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), attempted, r.failed, metrics})
	return string(out), err
}
