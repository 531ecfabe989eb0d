package mathx_test

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"github.com/sieve-microservices/sieve/internal/kshape"
	"github.com/sieve-microservices/sieve/internal/mathx"
)

// component is one component's metric names and series.
type component struct {
	name   string
	names  []string
	series [][]float64
}

// shareLatexComponents loads the two captured ShareLatex components kept
// in internal/kshape/testdata, and adds one wider population of the same
// shape (six source signals, each metric a scaled copy of one plus
// noise) so that clusters reach the sixteen rows the operator's widest
// batch takes.
func shareLatexComponents(t *testing.T) []component {
	t.Helper()
	var out []component
	for _, file := range []string{"sharelatex_window.json", "oscillating_window.json"} {
		data, err := os.ReadFile("../kshape/testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		var w struct {
			Names  []string    `json:"names"`
			Series [][]float64 `json:"series"`
		}
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatal(err)
		}
		out = append(out, component{file, w.Names, w.Series})
	}
	rng := rand.New(rand.NewSource(61))
	const metrics, steps = 120, 240
	sources := make([][]float64, 6)
	for d := range sources {
		sources[d] = make([]float64, steps)
		x := 0.0
		for i := range sources[d] {
			x = 0.9*x + rng.NormFloat64()
			sources[d][i] = x
		}
	}
	names, series := make([]string, metrics), make([][]float64, metrics)
	for m := range series {
		names[m] = string(rune('a'+m%6)) + "_metric"
		series[m] = make([]float64, steps)
		scale := 1 + rng.Float64()
		for i, x := range sources[m%len(sources)] {
			series[m][i] = scale*x + 0.3*rng.NormFloat64()
		}
	}
	out = append(out, component{"wide", names, series})
	return out
}

// TestKernelAsmSweepMatchesGo runs the name-seeded k = 2..7 sweep
// (ChooseKFromDist, what step 2 runs per component) once on the assembly
// kernel and once on the Go loops: K, every silhouette score, the
// assignments, and the bits of every distance and centroid must agree.
func TestKernelAsmSweepMatchesGo(t *testing.T) {
	if !mathx.AsmKernel() {
		t.Skipf("no assembly kernel on this host (GOARCH=%s, or amd64 without AVX): the Go loops are the kernel", runtime.GOARCH)
	}
	sweep := func(names []string, series [][]float64) *kshape.SweepResult {
		res, err := kshape.ChooseKFromDist(context.Background(), series, nil, names, 2, 7, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, comp := range shareLatexComponents(t) {
		name, names, series := comp.name, comp.names, comp.series
		asm := sweep(names, series)
		restore := mathx.UseGoKernel()
		ref := sweep(names, series)
		restore()

		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if asm.K != ref.K || !same(asm.Silhouette, ref.Silhouette) || asm.Iterations != ref.Iterations {
			t.Fatalf("%s: K %d silhouette %v after %d iterations; Go loops K %d silhouette %v after %d", name,
				asm.K, asm.Silhouette, asm.Iterations, ref.K, ref.Silhouette, ref.Iterations)
		}
		for k, s := range ref.Scores {
			if !same(asm.Scores[k], s) {
				t.Fatalf("%s: k=%d scores %v, Go loops %v", name, k, asm.Scores[k], s)
			}
		}
		for i, a := range ref.Assignments {
			if asm.Assignments[i] != a || !same(asm.Distances[i], ref.Distances[i]) {
				t.Fatalf("%s: series %d in cluster %d at %v, Go loops %d at %v", name, i,
					asm.Assignments[i], asm.Distances[i], a, ref.Distances[i])
			}
		}
		for c, cent := range ref.Centroids {
			for j, v := range cent {
				if !same(asm.Centroids[c][j], v) {
					t.Fatalf("%s: centroid %d entry %d = %v, Go loops %v", name, c, j, asm.Centroids[c][j], v)
				}
			}
		}
		t.Logf("%s: %d series, K=%d, silhouette %.6f", name, len(series), ref.K, ref.Silhouette)
	}
}
