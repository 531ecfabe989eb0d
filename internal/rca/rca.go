// Package rca implements the paper's second case study (§4.2, §6.3): a
// root-cause-analysis engine that diffs the Sieve artifacts of a correct
// (C) and a faulty (F) application version through five steps — metric
// presence analysis, component novelty ranking, cluster novelty and
// similarity scoring, dependency-edge filtering, and a final ranked list
// of {component, metric list} pairs that localizes the anomaly.
package rca

import (
	"errors"
	"fmt"
	"sort"

	"github.com/sieve-microservices/sieve/internal/core"
)

// Options tunes the engine.
type Options struct {
	// SimilarityThreshold is the minimum inter-version cluster similarity
	// for an edge event to count as "between similar clusters" (the paper
	// evaluates 0, 0.5, 0.6, 0.7 and settles on 0.5).
	SimilarityThreshold float64
}

// noveltyThreshold is the minimum cluster novelty score (new + discarded
// members) for a cluster to count as novel.
const noveltyThreshold = 1

// ComponentDiff is the step-1/2 view of one component.
type ComponentDiff struct {
	// Component names the microservice.
	Component string
	// New and Discarded list metrics present only in F / only in C.
	New, Discarded []string
	// Novelty = len(New) + len(Discarded).
	Novelty int
	// Total is the union metric population across versions.
	Total int
	// Rank is the novelty rank (1 = most novel); 0 when Novelty is 0.
	Rank int
}

// ClusterKind classifies a cluster diff (Fig. 7a).
type ClusterKind int

// Cluster diff kinds.
const (
	// ClusterUnchanged: same membership, no novel metrics.
	ClusterUnchanged ClusterKind = iota + 1
	// ClusterNew: contains new metrics only.
	ClusterNew
	// ClusterDiscarded: contains discarded metrics only.
	ClusterDiscarded
	// ClusterNewAndDiscarded: contains both.
	ClusterNewAndDiscarded
	// ClusterChanged: membership shuffled without novel metrics.
	ClusterChanged
)

// String names the kind.
func (k ClusterKind) String() string {
	switch k {
	case ClusterUnchanged:
		return "unchanged"
	case ClusterNew:
		return "new"
	case ClusterDiscarded:
		return "discarded"
	case ClusterNewAndDiscarded:
		return "new+discarded"
	case ClusterChanged:
		return "changed"
	default:
		return fmt.Sprintf("ClusterKind(%d)", int(k))
	}
}

// ClusterDiff is the step-3 view of one correct-version cluster matched
// against the faulty version.
type ClusterDiff struct {
	// Component owns the cluster.
	Component string
	// CorrectID is the cluster ID in the C artifact; FaultyID the best
	// match in F (-1 when no faulty cluster overlaps).
	CorrectID, FaultyID int
	// Similarity is the paper's modified Jaccard S = |Mc ∩ Mf| / |Mc|.
	Similarity float64
	// NewMetrics and DiscardedMetrics are the novel members.
	NewMetrics, DiscardedMetrics []string
	// Novelty = len(NewMetrics) + len(DiscardedMetrics).
	Novelty int
	// Kind classifies the diff.
	Kind ClusterKind
}

// EdgeKind classifies a dependency-edge diff (Fig. 7b).
type EdgeKind int

// Edge diff kinds.
const (
	// EdgeUnchanged: present in both versions with the same lag.
	EdgeUnchanged EdgeKind = iota + 1
	// EdgeNew: present only in the faulty version.
	EdgeNew
	// EdgeDiscarded: present only in the correct version.
	EdgeDiscarded
	// EdgeLagChanged: present in both versions with different lags.
	EdgeLagChanged
)

// String names the kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeUnchanged:
		return "unchanged"
	case EdgeNew:
		return "new"
	case EdgeDiscarded:
		return "discarded"
	case EdgeLagChanged:
		return "lag-changed"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// EdgeDiff is one step-4 edge event surviving the filter.
type EdgeDiff struct {
	// Kind classifies the event.
	Kind EdgeKind
	// From and To are the components; FromMetric/ToMetric the
	// representative metrics of the defining version (F for new edges, C
	// otherwise).
	From, To             string
	FromMetric, ToMetric string
	// CorrectLagMS and FaultyLagMS are the per-version lags (0 when the
	// edge is absent in that version).
	CorrectLagMS, FaultyLagMS int64
	// InvolvesNovelCluster marks event type 1 (an endpoint cluster has a
	// high novelty score).
	InvolvesNovelCluster bool
	// EndpointSimilarity is the smaller of the two endpoint cluster
	// similarities.
	EndpointSimilarity float64
	// FromClusterID and ToClusterID are the endpoint clusters in
	// correct-version ID space (-1 when the endpoint only exists in F).
	FromClusterID, ToClusterID int
}

// RankedComponent is one row of the step-5 final list.
type RankedComponent struct {
	// Component names the suspect.
	Component string
	// Rank is its final position (1 = strongest suspect).
	Rank int
	// Metrics is the reduced metric list pointing at the root cause.
	Metrics []string
}

// Report is the full engine output.
type Report struct {
	// Components is the step-1/2 diff, sorted by novelty (desc).
	Components []ComponentDiff
	// Clusters is the step-3 diff for every correct-version cluster.
	Clusters []ClusterDiff
	// Edges is the step-4 filtered edge set.
	Edges []EdgeDiff
	// Rankings is the step-5 final list.
	Rankings []RankedComponent
	// Options echoes the thresholds used.
	Options Options
}

// ClusterKindCounts tallies the step-3 cluster classifications (Fig. 7a).
func (r *Report) ClusterKindCounts() map[ClusterKind]int {
	out := map[ClusterKind]int{}
	for _, cd := range r.Clusters {
		out[cd.Kind]++
	}
	return out
}

// EdgeKindCounts tallies the step-4 edge events (Fig. 7b).
func (r *Report) EdgeKindCounts() map[EdgeKind]int {
	out := map[EdgeKind]int{}
	for _, e := range r.Edges {
		out[e.Kind]++
	}
	return out
}

// SurvivingCounts returns how many components, clusters and metrics
// remain for the developer to inspect after edge filtering (Fig. 7c).
func (r *Report) SurvivingCounts() (components, clusters, metricCount int) {
	comps := map[string]bool{}
	clusterSet := map[clusterKey]bool{}
	for _, e := range r.Edges {
		comps[e.From] = true
		comps[e.To] = true
		if e.FromClusterID >= 0 {
			clusterSet[clusterKey{e.From, e.FromClusterID}] = true
		}
		if e.ToClusterID >= 0 {
			clusterSet[clusterKey{e.To, e.ToClusterID}] = true
		}
	}
	for _, rc := range r.Rankings {
		metricCount += len(rc.Metrics)
	}
	return len(comps), len(clusterSet), metricCount
}

// Diagnose runs the five-step RCA over two pipeline artifacts.
func Diagnose(correct, faulty *core.Artifact, opts Options) (*Report, error) {
	if correct == nil || faulty == nil {
		return nil, errors.New("rca: nil artifact")
	}
	if correct.Dataset == nil || faulty.Dataset == nil || correct.Graph == nil || faulty.Graph == nil {
		return nil, errors.New("rca: artifacts must carry datasets and dependency graphs")
	}
	r := &Report{Options: opts}

	// Steps 1-2: metric presence diff and component novelty ranking.
	r.Components = componentDiffs(correct, faulty)

	// Step 3: cluster novelty and similarity.
	r.Clusters = clusterDiffs(correct, faulty, r.Components)

	// Step 4: edge filtering.
	r.Edges = edgeDiffs(correct, faulty, r.Clusters, opts)

	// Step 5: final rankings.
	r.Rankings = finalRankings(r)
	return r, nil
}

func componentDiffs(correct, faulty *core.Artifact) []ComponentDiff {
	names := map[string]bool{}
	for _, c := range correct.Dataset.Components() {
		names[c] = true
	}
	for _, c := range faulty.Dataset.Components() {
		names[c] = true
	}

	var out []ComponentDiff
	for name := range names {
		cSet := toSet(correct.Dataset.MetricNames(name))
		fSet := toSet(faulty.Dataset.MetricNames(name))
		d := ComponentDiff{Component: name}
		for m := range fSet {
			if !cSet[m] {
				d.New = append(d.New, m)
			}
		}
		for m := range cSet {
			if !fSet[m] {
				d.Discarded = append(d.Discarded, m)
			}
		}
		sort.Strings(d.New)
		sort.Strings(d.Discarded)
		d.Novelty = len(d.New) + len(d.Discarded)
		d.Total = len(union(cSet, fSet))
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Novelty != out[j].Novelty {
			return out[i].Novelty > out[j].Novelty
		}
		return out[i].Component < out[j].Component
	})
	rank := 0
	for i := range out {
		if out[i].Novelty > 0 {
			rank++
			out[i].Rank = rank
		}
	}
	return out
}

func clusterDiffs(correct, faulty *core.Artifact, comps []ComponentDiff) []ClusterDiff {
	novelByComp := map[string]*ComponentDiff{}
	for i := range comps {
		novelByComp[comps[i].Component] = &comps[i]
	}

	var out []ClusterDiff
	for _, comp := range correct.Dataset.Components() {
		cRed := correct.Reduction[comp]
		fRed := faulty.Reduction[comp]
		if cRed == nil {
			continue
		}
		diff := novelByComp[comp]
		newSet := map[string]bool{}
		discardedSet := map[string]bool{}
		if diff != nil {
			newSet = toSet(diff.New)
			discardedSet = toSet(diff.Discarded)
		}

		for _, cc := range cRed.Clusters {
			cd := ClusterDiff{
				Component: comp,
				CorrectID: cc.ID,
				FaultyID:  -1,
			}
			cSet := toSet(cc.Metrics)

			// Best-matching faulty cluster by the modified Jaccard score.
			if fRed != nil {
				for _, fc := range fRed.Clusters {
					s := overlap(cSet, toSet(fc.Metrics)) / float64(len(cSet))
					if s > cd.Similarity || cd.FaultyID < 0 && s > 0 {
						cd.Similarity = s
						cd.FaultyID = fc.ID
					}
				}
			}

			// Novel members: discarded metrics that lived in this cluster,
			// plus new metrics that joined the matched faulty cluster.
			for m := range cSet {
				if discardedSet[m] {
					cd.DiscardedMetrics = append(cd.DiscardedMetrics, m)
				}
			}
			if cd.FaultyID >= 0 && fRed != nil {
				for _, fc := range fRed.Clusters {
					if fc.ID != cd.FaultyID {
						continue
					}
					for _, m := range fc.Metrics {
						if newSet[m] {
							cd.NewMetrics = append(cd.NewMetrics, m)
						}
					}
				}
			}
			sort.Strings(cd.NewMetrics)
			sort.Strings(cd.DiscardedMetrics)
			cd.Novelty = len(cd.NewMetrics) + len(cd.DiscardedMetrics)
			cd.Kind = classifyCluster(cd)
			out = append(out, cd)
		}
	}
	return out
}

func classifyCluster(cd ClusterDiff) ClusterKind {
	hasNew := len(cd.NewMetrics) > 0
	hasDiscarded := len(cd.DiscardedMetrics) > 0
	switch {
	case hasNew && hasDiscarded:
		return ClusterNewAndDiscarded
	case hasNew:
		return ClusterNew
	case hasDiscarded:
		return ClusterDiscarded
	case cd.Similarity < 1:
		return ClusterChanged
	default:
		return ClusterUnchanged
	}
}

// clusterKey identifies a cluster by component and the version-local ID.
type clusterKey struct {
	comp string
	id   int
}

func edgeDiffs(correct, faulty *core.Artifact, clusters []ClusterDiff, opts Options) []EdgeDiff {
	// Index cluster diffs: similarity + novelty per correct cluster, and
	// map faulty clusters back to their matched correct cluster.
	simByCorrect := map[clusterKey]float64{}
	noveltyByCorrect := map[clusterKey]int{}
	correctByFaulty := map[clusterKey]clusterKey{}
	for _, cd := range clusters {
		ck := clusterKey{cd.Component, cd.CorrectID}
		simByCorrect[ck] = cd.Similarity
		noveltyByCorrect[ck] = cd.Novelty
		if cd.FaultyID >= 0 {
			correctByFaulty[clusterKey{cd.Component, cd.FaultyID}] = ck
		}
	}

	// Map each dependency edge to its endpoint clusters (via the
	// representative metric's assignment), keyed for cross-version match.
	type edgeInfo struct {
		e        core.DependencyEdge
		fromKey  clusterKey // in correct-version cluster space
		toKey    clusterKey
		resolved bool
	}
	resolve := func(art *core.Artifact, e core.DependencyEdge, faultySide bool) (clusterKey, clusterKey, bool) {
		fromRed := art.Reduction[e.From]
		toRed := art.Reduction[e.To]
		if fromRed == nil || toRed == nil {
			return clusterKey{}, clusterKey{}, false
		}
		fromID, okF := fromRed.Assignments[e.FromMetric]
		toID, okT := toRed.Assignments[e.ToMetric]
		if !okF || !okT {
			return clusterKey{}, clusterKey{}, false
		}
		fk := clusterKey{e.From, fromID}
		tk := clusterKey{e.To, toID}
		if faultySide {
			// Translate faulty cluster IDs into correct-version space.
			var ok bool
			if fk, ok = correctByFaulty[fk]; !ok {
				return clusterKey{}, clusterKey{}, false
			}
			if tk, ok = correctByFaulty[tk]; !ok {
				return clusterKey{}, clusterKey{}, false
			}
		}
		return fk, tk, true
	}

	cEdges := map[[2]clusterKey]edgeInfo{}
	for _, e := range correct.Graph.Edges {
		fk, tk, ok := resolve(correct, e, false)
		if !ok {
			continue
		}
		cEdges[[2]clusterKey{fk, tk}] = edgeInfo{e: e, fromKey: fk, toKey: tk, resolved: true}
	}
	fEdges := map[[2]clusterKey]edgeInfo{}
	for _, e := range faulty.Graph.Edges {
		fk, tk, ok := resolve(faulty, e, true)
		if !ok {
			// An edge whose endpoint cluster has no correct-version
			// counterpart is inherently novel; key it uniquely.
			fk = clusterKey{e.From, -100 - len(fEdges)}
			tk = clusterKey{e.To, -200 - len(fEdges)}
		}
		fEdges[[2]clusterKey{fk, tk}] = edgeInfo{e: e, fromKey: fk, toKey: tk, resolved: ok}
	}

	minSim := func(a, b clusterKey) float64 {
		sa, okA := simByCorrect[a]
		sb, okB := simByCorrect[b]
		if !okA || !okB {
			return 0
		}
		if sa < sb {
			return sa
		}
		return sb
	}
	isNovel := func(a, b clusterKey) bool {
		return noveltyByCorrect[a] >= noveltyThreshold || noveltyByCorrect[b] >= noveltyThreshold
	}

	var out []EdgeDiff
	// Matched and discarded edges (iterate correct side).
	for key, ci := range cEdges {
		fi, matched := fEdges[key]
		sim := minSim(key[0], key[1])
		novel := isNovel(key[0], key[1])
		var ed EdgeDiff
		switch {
		case !matched:
			ed = EdgeDiff{Kind: EdgeDiscarded, From: ci.e.From, To: ci.e.To,
				FromMetric: ci.e.FromMetric, ToMetric: ci.e.ToMetric,
				CorrectLagMS: ci.e.LagMS}
		case ci.e.LagMS != fi.e.LagMS:
			ed = EdgeDiff{Kind: EdgeLagChanged, From: ci.e.From, To: ci.e.To,
				FromMetric: ci.e.FromMetric, ToMetric: ci.e.ToMetric,
				CorrectLagMS: ci.e.LagMS, FaultyLagMS: fi.e.LagMS}
		default:
			ed = EdgeDiff{Kind: EdgeUnchanged, From: ci.e.From, To: ci.e.To,
				FromMetric: ci.e.FromMetric, ToMetric: ci.e.ToMetric,
				CorrectLagMS: ci.e.LagMS, FaultyLagMS: fi.e.LagMS}
		}
		ed.InvolvesNovelCluster = novel
		ed.EndpointSimilarity = sim
		ed.FromClusterID = key[0].id
		ed.ToClusterID = key[1].id
		if keepEdge(ed, opts) {
			out = append(out, ed)
		}
	}
	// New edges (faulty side without a correct match).
	for key, fi := range fEdges {
		if _, matched := cEdges[key]; matched {
			continue
		}
		ed := EdgeDiff{Kind: EdgeNew, From: fi.e.From, To: fi.e.To,
			FromMetric: fi.e.FromMetric, ToMetric: fi.e.ToMetric,
			FaultyLagMS: fi.e.LagMS, FromClusterID: -1, ToClusterID: -1}
		if fi.resolved {
			ed.EndpointSimilarity = minSim(key[0], key[1])
			ed.InvolvesNovelCluster = isNovel(key[0], key[1])
			ed.FromClusterID = key[0].id
			ed.ToClusterID = key[1].id
		} else {
			// Unmatched endpoint clusters are novel by construction.
			ed.InvolvesNovelCluster = true
		}
		if keepEdge(ed, opts) {
			out = append(out, ed)
		}
	}

	// One EdgeDiff per metric pair, so these five keys order the edges
	// totally and the map iteration above cannot show through.
	sort.Slice(out, func(i, j int) bool {
		ei, ej := out[i], out[j]
		if ei.From != ej.From {
			return ei.From < ej.From
		}
		if ei.To != ej.To {
			return ei.To < ej.To
		}
		if ei.Kind != ej.Kind {
			return ei.Kind < ej.Kind
		}
		if ei.FromMetric != ej.FromMetric {
			return ei.FromMetric < ej.FromMetric
		}
		return ei.ToMetric < ej.ToMetric
	})
	return out
}

// keepEdge implements the paper's three step-4 events: (1) the edge
// touches a novel cluster; (2) a new/discarded edge between similar
// clusters; (3) a lag change between similar clusters.
func keepEdge(ed EdgeDiff, opts Options) bool {
	if ed.InvolvesNovelCluster {
		return true
	}
	if ed.EndpointSimilarity < opts.SimilarityThreshold {
		return false
	}
	switch ed.Kind {
	case EdgeNew, EdgeDiscarded, EdgeLagChanged:
		return true
	default:
		return false
	}
}

func finalRankings(r *Report) []RankedComponent {
	// Components surviving step 4 (appearing on a kept edge).
	involved := map[string]bool{}
	for _, e := range r.Edges {
		involved[e.From] = true
		involved[e.To] = true
	}
	// Metric lists: novel cluster members plus kept-edge representatives.
	metricsByComp := map[string]map[string]bool{}
	add := func(comp, metric string) {
		if metricsByComp[comp] == nil {
			metricsByComp[comp] = map[string]bool{}
		}
		metricsByComp[comp][metric] = true
	}
	for _, cd := range r.Clusters {
		if cd.Novelty == 0 {
			continue
		}
		for _, m := range cd.NewMetrics {
			add(cd.Component, m)
		}
		for _, m := range cd.DiscardedMetrics {
			add(cd.Component, m)
		}
	}
	for _, e := range r.Edges {
		add(e.From, e.FromMetric)
		add(e.To, e.ToMetric)
	}

	var out []RankedComponent
	rank := 0
	for _, cd := range r.Components {
		if cd.Novelty == 0 || !involved[cd.Component] {
			continue
		}
		rank++
		rc := RankedComponent{Component: cd.Component, Rank: rank}
		for m := range metricsByComp[cd.Component] {
			rc.Metrics = append(rc.Metrics, m)
		}
		sort.Strings(rc.Metrics)
		out = append(out, rc)
	}
	return out
}

func toSet(xs []string) map[string]bool {
	out := make(map[string]bool, len(xs))
	for _, x := range xs {
		out[x] = true
	}
	return out
}

func union(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func overlap(a, b map[string]bool) float64 {
	n := 0
	for k := range a {
		if b[k] {
			n++
		}
	}
	return float64(n)
}
