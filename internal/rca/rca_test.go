package rca

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/core"
	"github.com/sieve-microservices/sieve/internal/timeseries"
)

// synthArtifact builds a hand-crafted artifact for unit-level tests.
func synthArtifact(metricsByComp map[string][]string, clusters map[string][]core.Cluster, edges []core.DependencyEdge) *core.Artifact {
	ds := &core.Dataset{
		App:    "synth",
		StepMS: 500,
		Series: map[string]map[string]*timeseries.Regular{},
	}
	red := core.Reduction{}
	for comp, names := range metricsByComp {
		ds.Series[comp] = map[string]*timeseries.Regular{}
		for _, n := range names {
			ds.Series[comp][n] = &timeseries.Regular{Name: n, StepMS: 500, Values: []float64{0, 1}}
		}
		cr := &core.ComponentReduction{
			Component:   comp,
			Total:       len(names),
			Assignments: map[string]int{},
		}
		for _, c := range clusters[comp] {
			cr.Clusters = append(cr.Clusters, c)
			for _, m := range c.Metrics {
				cr.Assignments[m] = c.ID
			}
		}
		cr.K = len(cr.Clusters)
		red[comp] = cr
	}
	ds.CallGraph = callgraph.New()
	return &core.Artifact{
		App:       "synth",
		Dataset:   ds,
		Reduction: red,
		Graph:     &core.DependencyGraph{Edges: edges},
	}
}

func correctAndFaulty() (*core.Artifact, *core.Artifact) {
	correct := synthArtifact(
		map[string][]string{
			"api": {"m_ok", "m_shared"},
			"db":  {"d1", "d2"},
		},
		map[string][]core.Cluster{
			"api": {{ID: 0, Metrics: []string{"m_ok", "m_shared"}, Representative: "m_shared"}},
			"db":  {{ID: 0, Metrics: []string{"d1", "d2"}, Representative: "d1"}},
		},
		[]core.DependencyEdge{
			{From: "api", To: "db", FromMetric: "m_shared", ToMetric: "d1", LagMS: 500, PValue: 0.01},
		},
	)
	faulty := synthArtifact(
		map[string][]string{
			"api": {"m_err", "m_shared"},
			"db":  {"d1", "d2"},
		},
		map[string][]core.Cluster{
			"api": {{ID: 0, Metrics: []string{"m_err", "m_shared"}, Representative: "m_shared"}},
			"db":  {{ID: 0, Metrics: []string{"d1", "d2"}, Representative: "d1"}},
		},
		[]core.DependencyEdge{
			{From: "api", To: "db", FromMetric: "m_shared", ToMetric: "d1", LagMS: 1000, PValue: 0.01},
		},
	)
	return correct, faulty
}

func TestComponentDiffAndRanking(t *testing.T) {
	correct, faulty := correctAndFaulty()
	rep, err := Diagnose(correct, faulty, Options{SimilarityThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Components) != 2 {
		t.Fatalf("components = %+v", rep.Components)
	}
	api := rep.Components[0]
	if api.Component != "api" || api.Novelty != 2 || api.Rank != 1 {
		t.Errorf("api diff = %+v", api)
	}
	if len(api.New) != 1 || api.New[0] != "m_err" {
		t.Errorf("api new = %v", api.New)
	}
	if len(api.Discarded) != 1 || api.Discarded[0] != "m_ok" {
		t.Errorf("api discarded = %v", api.Discarded)
	}
	db := rep.Components[1]
	if db.Novelty != 0 || db.Rank != 0 {
		t.Errorf("db diff = %+v", db)
	}
}

func TestClusterNoveltyAndSimilarity(t *testing.T) {
	correct, faulty := correctAndFaulty()
	rep, err := Diagnose(correct, faulty, Options{SimilarityThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var apiCluster *ClusterDiff
	for i := range rep.Clusters {
		if rep.Clusters[i].Component == "api" {
			apiCluster = &rep.Clusters[i]
		}
	}
	if apiCluster == nil {
		t.Fatal("api cluster diff missing")
	}
	// S = |{m_shared}| / |{m_ok, m_shared}| = 0.5.
	if apiCluster.Similarity != 0.5 {
		t.Errorf("similarity = %g, want 0.5", apiCluster.Similarity)
	}
	if apiCluster.Novelty != 2 || apiCluster.Kind != ClusterNewAndDiscarded {
		t.Errorf("cluster diff = %+v", apiCluster)
	}
	counts := rep.ClusterKindCounts()
	if counts[ClusterNewAndDiscarded] != 1 || counts[ClusterUnchanged] != 1 {
		t.Errorf("cluster kind counts = %v", counts)
	}
}

func TestEdgeLagChangeDetected(t *testing.T) {
	correct, faulty := correctAndFaulty()
	rep, err := Diagnose(correct, faulty, Options{SimilarityThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Edges) != 1 {
		t.Fatalf("edges = %+v", rep.Edges)
	}
	e := rep.Edges[0]
	if e.Kind != EdgeLagChanged {
		t.Errorf("kind = %v, want lag-changed", e.Kind)
	}
	if e.CorrectLagMS != 500 || e.FaultyLagMS != 1000 {
		t.Errorf("lags = %d -> %d", e.CorrectLagMS, e.FaultyLagMS)
	}
	if !e.InvolvesNovelCluster {
		t.Error("edge must be marked as touching the novel api cluster")
	}
}

func TestEdgeNewAndDiscarded(t *testing.T) {
	correct, faulty := correctAndFaulty()
	// Faulty version: replace the edge with a different direction pair.
	faulty.Graph.Edges = []core.DependencyEdge{
		{From: "db", To: "api", FromMetric: "d1", ToMetric: "m_shared", LagMS: 500, PValue: 0.01},
	}
	rep, err := Diagnose(correct, faulty, Options{SimilarityThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	counts := rep.EdgeKindCounts()
	if counts[EdgeDiscarded] != 1 || counts[EdgeNew] != 1 {
		t.Errorf("edge counts = %v, want one discarded + one new", counts)
	}
}

func TestUnchangedEdgesFilteredWithoutNovelty(t *testing.T) {
	// Identical versions: nothing survives the filter.
	correct, _ := correctAndFaulty()
	same, _ := correctAndFaulty()
	same.Dataset.Series["api"] = correct.Dataset.Series["api"]
	// Make faulty identical to correct.
	rep, err := Diagnose(correct, correct, Options{SimilarityThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Edges) != 0 {
		t.Errorf("identical versions produced edge events: %+v", rep.Edges)
	}
	if len(rep.Rankings) != 0 {
		t.Errorf("identical versions produced suspects: %+v", rep.Rankings)
	}
	_ = same
}

func TestFinalRankingsPointAtRootCause(t *testing.T) {
	correct, faulty := correctAndFaulty()
	rep, err := Diagnose(correct, faulty, Options{SimilarityThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rankings) != 1 {
		t.Fatalf("rankings = %+v", rep.Rankings)
	}
	top := rep.Rankings[0]
	if top.Component != "api" || top.Rank != 1 {
		t.Errorf("top suspect = %+v", top)
	}
	if !containsStr(top.Metrics, "m_err") || !containsStr(top.Metrics, "m_ok") {
		t.Errorf("suspect metrics = %v, want the novel pair", top.Metrics)
	}
	comps, clusters, metricCount := rep.SurvivingCounts()
	if comps != 2 || clusters == 0 || metricCount == 0 {
		t.Errorf("surviving counts = %d/%d/%d", comps, clusters, metricCount)
	}
}

func TestSimilarityThresholdFiltersWeakEdges(t *testing.T) {
	correct, faulty := correctAndFaulty()
	// Remove the api novelty so only the similarity gate applies: make
	// faulty api identical to correct.
	faulty.Dataset.Series["api"] = correct.Dataset.Series["api"]
	faulty.Reduction["api"] = correct.Reduction["api"]
	rep, err := Diagnose(correct, faulty, Options{SimilarityThreshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// The lag-changed edge sits between clusters with similarity 1.0 (db)
	// and 1.0 (api now identical): kept even at 0.9.
	if counts := rep.EdgeKindCounts(); counts[EdgeLagChanged] != 1 {
		t.Errorf("edge counts = %v", counts)
	}
}

// TestEdgesOrderedByAllKeys: edges that differ only in ToMetric must
// not tie, or their order follows map iteration and two runs over the
// same artifacts print different reports.
func TestEdgesOrderedByAllKeys(t *testing.T) {
	const n = 12
	dbMetrics := make([]string, n)
	dbClusters := make([]core.Cluster, n)
	var edges []core.DependencyEdge
	for i := range dbMetrics {
		m := fmt.Sprintf("d%02d", i)
		dbMetrics[i] = m
		dbClusters[i] = core.Cluster{ID: i, Metrics: []string{m}, Representative: m}
		edges = append(edges, core.DependencyEdge{From: "api", To: "db", FromMetric: "m_shared", ToMetric: m, LagMS: 500, PValue: 0.01})
	}
	correct := synthArtifact(
		map[string][]string{"api": {"m_ok", "m_shared"}, "db": dbMetrics},
		map[string][]core.Cluster{
			"api": {{ID: 0, Metrics: []string{"m_ok", "m_shared"}, Representative: "m_shared"}},
			"db":  dbClusters,
		}, nil)
	faulty := synthArtifact(
		map[string][]string{"api": {"m_err", "m_shared"}, "db": dbMetrics},
		map[string][]core.Cluster{
			"api": {{ID: 0, Metrics: []string{"m_err", "m_shared"}, Representative: "m_shared"}},
			"db":  dbClusters,
		}, edges)

	var first []EdgeDiff
	for run := 0; run < 10; run++ {
		rep, err := Diagnose(correct, faulty, Options{SimilarityThreshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Edges) != n {
			t.Fatalf("edges = %+v, want %d new edges", rep.Edges, n)
		}
		if run == 0 {
			first = rep.Edges
		} else if !reflect.DeepEqual(rep.Edges, first) {
			t.Fatalf("run %d: edges %+v, want the first run's %+v", run, rep.Edges, first)
		}
	}
	key := func(e EdgeDiff) string {
		return fmt.Sprintf("%s\x00%s\x00%d\x00%s\x00%s", e.From, e.To, e.Kind, e.FromMetric, e.ToMetric)
	}
	for i := 1; i < n; i++ {
		if key(first[i-1]) >= key(first[i]) {
			t.Fatalf("edges %d and %d out of order: %+v then %+v", i-1, i, first[i-1], first[i])
		}
	}
}

func TestDiagnoseValidation(t *testing.T) {
	correct, _ := correctAndFaulty()
	if _, err := Diagnose(nil, correct, Options{}); err == nil {
		t.Error("expected error for nil artifact")
	}
	bad := &core.Artifact{}
	if _, err := Diagnose(correct, bad, Options{}); err == nil {
		t.Error("expected error for artifact without dataset")
	}
}

func TestKindStrings(t *testing.T) {
	if ClusterNew.String() != "new" || EdgeLagChanged.String() != "lag-changed" {
		t.Error("kind names wrong")
	}
	if ClusterKind(99).String() == "" || EdgeKind(99).String() == "" {
		t.Error("unknown kinds must format")
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
