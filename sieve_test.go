package sieve

import (
	"strings"
	"testing"

	"github.com/sieve-microservices/sieve/internal/autoscale"
	"github.com/sieve-microservices/sieve/internal/rca"
)

// TestPublicAPIShareLatexPipeline exercises the full public surface on a
// short ShareLatex run: capture, reduce and identify; the artifact then
// feeds Table 4's policy synthesis (internal/autoscale), which the facade
// does not export.
func TestPublicAPIShareLatexPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	app, err := NewShareLatex(42)
	if err != nil {
		t.Fatal(err)
	}
	artifact, capture, err := Run(app, RandomLoad(1, 240, 200, 2500), DefaultPipelineOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Reduction must be at least ~5x (the paper reports 10-100x on the
	// real deployment; the simulator's metric families are narrower).
	before, after := artifact.Reduction.TotalBefore(), artifact.Reduction.TotalAfter()
	if before < 800 {
		t.Errorf("captured %d metrics, want ~889", before)
	}
	if after*5 > before {
		t.Errorf("reduction too weak: %d -> %d", before, after)
	}

	// The dependency graph must connect components and name a guiding
	// metric.
	if len(artifact.Graph.Edges) == 0 {
		t.Fatal("no dependencies inferred")
	}
	key, n := artifact.Graph.MostFrequentMetric()
	if key == "" || n == 0 {
		t.Fatal("no guiding metric")
	}

	rules, err := autoscale.SievePolicy(artifact, []string{"web"}, 1400, 1120)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].MetricComponent+"/"+rules[0].Metric != key {
		t.Errorf("policy = %+v, want one rule guided by %q", rules, key)
	}

	// Monitoring accounting must be populated for Table 3 style math.
	st := capture.DB.Stats()
	if st.Points == 0 || st.NetworkInBytes == 0 || st.IngestCPU <= 0 {
		t.Errorf("db stats = %+v", st)
	}
}

// TestPublicAPIOpenStackRCA exercises the RCA path end to end on short
// correct/faulty OpenStack runs: facade artifacts into Table 5's
// diagnosis (internal/rca), which the facade does not export.
func TestPublicAPIOpenStackRCA(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	opts := DefaultPipelineOptions()

	correctApp, err := NewOpenStack(7, false)
	if err != nil {
		t.Fatal(err)
	}
	correct, _, err := Run(correctApp, RandomLoad(2, 240, 100, 1200), opts)
	if err != nil {
		t.Fatal(err)
	}

	faultyApp, err := NewOpenStack(7, true)
	if err != nil {
		t.Fatal(err)
	}
	faulty, _, err := Run(faultyApp, RandomLoad(2, 240, 100, 1200), opts)
	if err != nil {
		t.Fatal(err)
	}

	report, err := rca.Diagnose(correct, faulty, rca.Options{SimilarityThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	// The fault lives in Nova/Neutron: both must rank among the suspects,
	// and nova-api must be near the top (it has the largest novelty).
	if len(report.Rankings) == 0 {
		t.Fatal("no suspects")
	}
	rankOf := map[string]int{}
	for _, rc := range report.Rankings {
		rankOf[rc.Component] = rc.Rank
	}
	if r, ok := rankOf["nova-api"]; !ok || r > 2 {
		t.Errorf("nova-api rank = %d (present=%v), want top-2", r, ok)
	}
	if _, ok := rankOf["neutron-server"]; !ok {
		t.Errorf("neutron-server missing from suspects: %v", rankOf)
	}

	// The headline metric pair must surface in the final metric lists.
	foundError := false
	for _, rc := range report.Rankings {
		for _, m := range rc.Metrics {
			if strings.Contains(m, "nova_instances_in_state_ERROR") {
				foundError = true
			}
		}
	}
	if !foundError {
		t.Error("nova_instances_in_state_ERROR not surfaced in suspect metrics")
	}
}
