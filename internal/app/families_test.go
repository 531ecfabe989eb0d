package app

import (
	"strings"
	"testing"
)

// exportedMetrics runs a one-component application declared with the
// given families and constants for a tick and counts what its registry
// then exports.
func exportedMetrics(t *testing.T, fams []Family, constants map[string]float64) int {
	t.Helper()
	a, err := New(Spec{Name: "one", TickMS: 500, Components: []ComponentSpec{{
		Name: "c", Addr: "10.0.0.1:80", ServiceMS: 1, CapacityPerInstance: 1000, Entry: true,
		Families: fams, Constants: constants,
	}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Step(100)
	return len(a.Registry("c").Snapshot())
}

func TestSystemFamiliesCount(t *testing.T) {
	if got := exportedMetrics(t, SystemFamilies(), nil); got != 25 {
		t.Errorf("system families export %d metrics, want 25", got)
	}
}

func TestGenFamiliesExactCountAndDeterminism(t *testing.T) {
	a := GenFamilies("svc", 17, PhaseAlways)
	if got := exportedMetrics(t, a, nil); got != 17 {
		t.Errorf("generated %d metrics, want 17", got)
	}
	b := GenFamilies("svc", 17, PhaseAlways)
	for i := range a {
		if a[i].Base != b[i].Base || a[i].Driver != b[i].Driver ||
			a[i].Scale != b[i].Scale || a[i].Noise != b[i].Noise ||
			a[i].Counter != b[i].Counter || a[i].Phase != b[i].Phase {
			t.Fatalf("GenFamilies not deterministic at %d", i)
		}
	}
	for _, f := range a {
		if !strings.HasPrefix(f.Base, "svc_") {
			t.Errorf("family %q missing prefix", f.Base)
		}
		if f.Phase != PhaseAlways {
			t.Errorf("family %q has phase %v", f.Base, f.Phase)
		}
	}
	if got := len(GenFamilies("x", 0, PhaseAlways)); got != 0 {
		t.Errorf("zero request generated %d", got)
	}
}

func TestCountMetricsWithVariantsAndConstants(t *testing.T) {
	fams := []Family{
		{Base: "a", Variants: []string{"x", "y", "z"}},
		{Base: "b"},
	}
	consts := map[string]float64{"c1": 1, "c2": 2}
	if got := exportedMetrics(t, fams, consts); got != 6 {
		t.Errorf("exported %d metrics, want 6 (3 variants + 1 plain + 2 constants)", got)
	}
}
