package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/app/sharelatex"
	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/jsonenc"
	"github.com/sieve-microservices/sieve/internal/loadgen"
	"github.com/sieve-microservices/sieve/internal/timeseries"
)

// referenceMarshalArtifact is MarshalArtifact as it was before the value
// arrays were written by hand: the whole artifact through
// json.MarshalIndent. MarshalArtifact must reproduce its bytes exactly.
func referenceMarshalArtifact(a *Artifact) ([]byte, error) {
	out := artifactJSON{artifactHead: artifactHead{
		Version: artifactFormatVersion,
		App:     a.App,
		StepMS:  a.Dataset.StepMS,
		Start:   a.Dataset.Start,
		End:     a.Dataset.End,
	}}
	for _, comp := range a.Dataset.Components() {
		for _, metric := range a.Dataset.MetricNames(comp) {
			s := a.Dataset.Series[comp][metric]
			out.Series = append(out.Series, seriesJSON{
				Component: comp,
				Metric:    metric,
				Start:     s.Start,
				StepMS:    s.StepMS,
				Values:    s.Values,
			})
		}
	}
	if a.Dataset.CallGraph != nil {
		for _, e := range a.Dataset.CallGraph.Edges() {
			out.CallGraph = append(out.CallGraph, callEdgeJSON{Caller: e.Caller, Callee: e.Callee, Calls: e.Calls})
		}
	}
	for _, comp := range a.Dataset.Components() {
		cr := a.Reduction[comp]
		if cr == nil {
			continue
		}
		out.Reduction = append(out.Reduction, reductionJSON{
			Component:  cr.Component,
			Total:      cr.Total,
			Filtered:   cr.Filtered,
			K:          cr.K,
			Silhouette: cr.Silhouette,
			Clusters:   cr.Clusters,
		})
	}
	if a.Graph != nil {
		out.Edges = a.Graph.Edges
		out.GraphMeta = dependencyGraphStats{Bidirectional: a.Graph.Bidirectional, Tested: a.Graph.Tested}
	}
	return json.MarshalIndent(out, "", " ")
}

func requireReferenceBytes(t *testing.T, a *Artifact) {
	t.Helper()
	got, err := MarshalArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceMarshalArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-40, 0)
		t.Fatalf("MarshalArtifact differs from json.MarshalIndent at byte %d (%d vs %d bytes):\n got  %q\n want %q",
			i, len(got), len(want), got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
	}
}

// TestMarshalArtifactMatchesEncodingJSON holds the hand-written series
// encoder to json.MarshalIndent byte for byte: on a real pipeline
// artifact, and on floats at every branch of encoding/json's number
// format plus names it has to escape.
func TestMarshalArtifactMatchesEncodingJSON(t *testing.T) {
	a, err := app.New(chainSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	art := artifactByHand(t, a, loadgen.Random(5, 150, 100, 1500))
	requireReferenceBytes(t, art)

	edge := []float64{
		0, math.Copysign(0, -1), 1, -1, 42, 1e6, 123456789012345680000, 1e20, 999999999999999900000, 1e21, -1e21, 1.5e300, math.MaxFloat64,
		1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 2.5e-100, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-320,
		0.1, 1.0 / 3, 100.25, -273.15, 1e15, 1e15 + 0.5, 4503599627370497.5,
	}
	reg := func(name string, vals []float64) *timeseries.Regular {
		return &timeseries.Regular{Name: name, Start: -1500, StepMS: 500, Values: vals}
	}
	cg := callgraph.New()
	cg.AddCall("a<b>", "plain", 3)
	odd := &Artifact{
		App: "edge \"cases\" & <html>",
		Dataset: &Dataset{
			App: "edge", StepMS: 500, Start: -1500, End: 0, CallGraph: cg,
			Series: map[string]map[string]*timeseries.Regular{
				"a<b>": {
					"q\"uote\\back":     reg("q", edge),
					"tab\tnew\nline":    reg("t", []float64{7}),
					"bad\xffutf8\u2028": reg("u", []float64{}),
					"nil-values":        reg("n", nil),
				},
				"plain": {"m": reg("m", edge[:3])},
				"empty": {},
			},
		},
		Reduction: Reduction{"plain": {Component: "plain", Total: 1, K: 1, Clusters: []Cluster{{ID: 0, Metrics: []string{"m"}, Representative: "m"}}}},
		Graph:     &DependencyGraph{},
	}
	requireReferenceBytes(t, odd)

	// No series at all, no call graph, no graph: every optional part absent.
	requireReferenceBytes(t, &Artifact{App: "bare", Dataset: &Dataset{App: "bare"}})

	// Both encoders refuse what JSON cannot carry.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		odd.Dataset.Series["plain"]["m"].Values = []float64{1, bad}
		if _, err := MarshalArtifact(odd); err == nil {
			t.Errorf("MarshalArtifact accepted %v", bad)
		}
		if _, err := referenceMarshalArtifact(odd); err == nil {
			t.Errorf("json.MarshalIndent accepted %v", bad)
		}
	}
}

func TestArtifactMarshalRoundTrip(t *testing.T) {
	a, err := app.New(chainSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	art := artifactByHand(t, a, loadgen.Random(5, 150, 100, 1500))

	data, err := MarshalArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalArtifact(data)
	if err != nil {
		t.Fatal(err)
	}

	if got.App != art.App {
		t.Errorf("app = %q, want %q", got.App, art.App)
	}
	if got.Dataset.TotalMetrics() != art.Dataset.TotalMetrics() {
		t.Errorf("series count = %d, want %d", got.Dataset.TotalMetrics(), art.Dataset.TotalMetrics())
	}
	// Series values survive exactly.
	for _, comp := range art.Dataset.Components() {
		for _, metric := range art.Dataset.MetricNames(comp) {
			orig := art.Dataset.Get(comp, metric)
			back := got.Dataset.Get(comp, metric)
			if back == nil {
				t.Fatalf("series %s/%s lost", comp, metric)
			}
			if back.Start != orig.Start || back.StepMS != orig.StepMS || len(back.Values) != len(orig.Values) {
				t.Fatalf("series %s/%s shape changed", comp, metric)
			}
			for i := range orig.Values {
				if back.Values[i] != orig.Values[i] {
					t.Fatalf("series %s/%s value %d changed", comp, metric, i)
				}
			}
		}
	}
	// Call graph edges survive.
	if want, back := art.Dataset.CallGraph.Edges(), got.Dataset.CallGraph.Edges(); !reflect.DeepEqual(back, want) {
		t.Errorf("call edges after round trip = %v, want %v", back, want)
	}
	// Reduction: assignments are rebuilt from clusters.
	for comp, cr := range art.Reduction {
		back := got.Reduction[comp]
		if back == nil {
			t.Fatalf("reduction for %s lost", comp)
		}
		if back.K != cr.K || back.Total != cr.Total || len(back.Clusters) != len(cr.Clusters) {
			t.Errorf("%s reduction changed: %+v vs %+v", comp, back, cr)
		}
		for m, id := range cr.Assignments {
			if back.Assignments[m] != id {
				t.Errorf("%s assignment for %s changed", comp, m)
			}
		}
	}
	// Dependency graph survives with metadata.
	if len(got.Graph.Edges) != len(art.Graph.Edges) {
		t.Errorf("edges = %d, want %d", len(got.Graph.Edges), len(art.Graph.Edges))
	}
	if got.Graph.Tested != art.Graph.Tested || got.Graph.Bidirectional != art.Graph.Bidirectional {
		t.Error("graph stats lost")
	}
	// The restored artifact is usable downstream: MostFrequentMetric
	// agrees.
	wantKey, wantN := art.Graph.MostFrequentMetric()
	gotKey, gotN := got.Graph.MostFrequentMetric()
	if wantKey != gotKey || wantN != gotN {
		t.Errorf("most frequent metric = %s(%d), want %s(%d)", gotKey, gotN, wantKey, wantN)
	}
}

func TestUnmarshalArtifactRejectsBadInput(t *testing.T) {
	if _, err := UnmarshalArtifact([]byte("not json")); err == nil {
		t.Error("expected error for malformed JSON")
	}
	// Wrong version.
	bad, _ := json.Marshal(map[string]any{"version": 99})
	if _, err := UnmarshalArtifact(bad); err == nil {
		t.Error("expected error for unknown format version")
	}
	// Series with empty identity.
	bad, _ = json.Marshal(map[string]any{
		"version": 1,
		"series":  []map[string]any{{"component": "", "metric": "m"}},
	})
	if _, err := UnmarshalArtifact(bad); err == nil {
		t.Error("expected error for empty component")
	}
}

func TestMarshalArtifactNil(t *testing.T) {
	if _, err := MarshalArtifact(nil); err == nil {
		t.Error("expected error for nil artifact")
	}
	if _, err := MarshalArtifact(&Artifact{}); err == nil {
		t.Error("expected error for artifact without dataset")
	}
}

// TestValidateArtifactRefusesNonFinite: the check the online server
// runs before publishing refuses exactly what MarshalArtifact refuses, a
// series value with MarshalArtifact's own error, and passes what it
// encodes.
func TestValidateArtifactRefusesNonFinite(t *testing.T) {
	fresh := func() *Artifact {
		return &Artifact{
			App: "v",
			Dataset: &Dataset{App: "v", StepMS: 500, Series: map[string]map[string]*timeseries.Regular{
				"c": {"m": {Name: "m", StepMS: 500, Values: []float64{1, 2, 3}}},
			}},
			Reduction: Reduction{"c": {Component: "c", Total: 1, K: 1, Silhouette: 0.5}},
			Graph:     &DependencyGraph{Edges: []DependencyEdge{{From: "c", To: "d", FromMetric: "m", ToMetric: "n", PValue: 0.01, F: 9}}},
		}
	}
	if err := ValidateArtifact(fresh()); err != nil {
		t.Fatalf("valid artifact refused: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := fresh()
		a.Dataset.Series["c"]["m"].Values[1] = bad
		err := ValidateArtifact(a)
		_, merr := MarshalArtifact(a)
		if err == nil || merr == nil || err.Error() != merr.Error() {
			t.Errorf("series value %v: ValidateArtifact = %v, MarshalArtifact = %v", bad, err, merr)
		}
		if want := "core: series c/m value 1: json: unsupported value: " + strconv.FormatFloat(bad, 'g', -1, 64); err == nil || err.Error() != want {
			t.Errorf("series value %v: error %v, want %q", bad, err, want)
		}

		for name, poison := range map[string]func(*Artifact){
			"silhouette": func(a *Artifact) { a.Reduction["c"].Silhouette = bad },
			"p-value":    func(a *Artifact) { a.Graph.Edges[0].PValue = bad },
			"F":          func(a *Artifact) { a.Graph.Edges[0].F = bad },
		} {
			a := fresh()
			poison(a)
			if err := ValidateArtifact(a); err == nil {
				t.Errorf("%s %v: ValidateArtifact accepted it", name, bad)
			}
			if _, err := referenceMarshalArtifact(a); err == nil {
				t.Errorf("%s %v: json.MarshalIndent accepted it", name, bad)
			}
		}
	}
	if ValidateArtifact(nil) == nil || ValidateArtifact(&Artifact{}) == nil {
		t.Error("ValidateArtifact accepted a nil artifact or dataset")
	}
}

// raceDetector reports a build with the race detector.
var raceDetector = false

// TestMarshalArtifactAllocatesOnce pins MarshalArtifact's allocations on
// a 240-tick ShareLatex artifact (912 series, 218 880 values): the output
// buffer is sized for the longest value line, so it never grows. A
// buffer sized too small shows as extra allocations for every regrowth.
func TestMarshalArtifactAllocatesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole pipeline on a 240-tick ShareLatex capture")
	}
	a, err := sharelatex.New(42)
	if err != nil {
		t.Fatal(err)
	}
	art := artifactByHand(t, a, loadgen.Random(43, 240, 150, 2000))
	var size int
	encode := func() {
		data, err := MarshalArtifact(art)
		if err != nil {
			t.Fatal(err)
		}
		size = len(data)
	}
	allocs := testing.AllocsPerRun(2, encode)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	encode()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d series, %d bytes out, %d bytes and %.0f allocations per encode",
		art.Dataset.TotalMetrics(), size, bytes, allocs)
	// Measured with Go 1.24: 45 allocations, 7.2 MB for 4.9 MB out. Every
	// regrowth of the output copies it whole and adds allocations.
	const maxAllocs = 45
	if allocs > maxAllocs && !raceDetector || bytes > 2*uint64(size) {
		t.Errorf("MarshalArtifact made %.0f allocations (at most %d) of %d bytes (at most %d): the output buffer grew",
			allocs, maxAllocs, bytes, 2*size)
	}
}

// appendFloatStrconv is jsonenc.AppendFloat without its short-decimal fast
// path: encoding/json's float format straight from strconv.
func appendFloatStrconv(out []byte, v float64) []byte {
	abs := math.Abs(v)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		out = strconv.AppendFloat(out, v, 'e', -1, 64)
		if n := len(out); n >= 4 && out[n-4] == 'e' && (out[n-3] == '-' || out[n-3] == '+') && out[n-2] == '0' {
			out[n-2] = out[n-1]
			out = out[:n-1]
		}
		return out
	}
	return strconv.AppendFloat(out, v, 'f', -1, 64)
}

// benchSink keeps the benchmarked output observable.
var benchSink []byte

// BenchmarkAppendFloatArtifact times jsonenc.AppendFloat against plain
// strconv on the series values MarshalArtifact formats for a 120-tick
// `cmd/sieve -save` artifact (ShareLatex, seed 42). Few of them are short
// decimals, so this is the cost of the fast path's rejection; jsonenc's
// BenchmarkAppendFloat has the mixes it serves. ns/op is per value.
func BenchmarkAppendFloatArtifact(b *testing.B) {
	a, err := sharelatex.New(42)
	if err != nil {
		b.Fatal(err)
	}
	art := artifactByHand(b, a, loadgen.Random(43, 120, 150, 2000))
	var vals []float64
	hits := 0
	for _, comp := range art.Dataset.Components() {
		for _, metric := range art.Dataset.MetricNames(comp) {
			for _, v := range art.Dataset.Series[comp][metric].Values {
				if abs := math.Abs(v); abs >= 1e-4 && abs*1e4 < 1<<43 && math.Round(abs*1e4)/1e4 == abs {
					hits++
				}
				vals = append(vals, v)
			}
		}
	}
	for _, enc := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{{"fast", jsonenc.AppendFloat}, {"strconv", appendFloatStrconv}} {
		b.Run(enc.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			for i, j := 0, 0; i < b.N; i, j = i+1, j+1 {
				if j == len(vals) {
					j = 0
				}
				buf = enc.fn(buf[:0], vals[j])
			}
			benchSink = buf
			b.ReportMetric(float64(hits)/float64(len(vals)), "hit_share")
		})
	}
}
