package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/jsonenc"
	"github.com/sieve-microservices/sieve/internal/timeseries"
)

// Artifact is the end product of a full pipeline run on one application
// version: everything downstream engines (autoscaling, RCA) consume.
type Artifact struct {
	// App names the application.
	App string
	// Dataset is the analysed window.
	Dataset *Dataset
	// Reduction is the step-2 output.
	Reduction Reduction
	// Graph is the step-3 dependency graph.
	Graph *DependencyGraph
}

// artifactJSON is the serialized form of an Artifact. Time series are
// stored as raw value arrays with grid parameters; the call graph as an
// edge list. The format is versioned so persisted artifacts from older
// releases fail loudly instead of decoding garbage. The series sit
// between two embedded halves because MarshalArtifact writes them itself
// and leaves only the halves to encoding/json.
type artifactJSON struct {
	artifactHead
	Series []seriesJSON `json:"series"`
	artifactTail
}

type artifactHead struct {
	Version int    `json:"version"`
	App     string `json:"app"`
	StepMS  int64  `json:"step_ms"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

type artifactTail struct {
	CallGraph []callEdgeJSON       `json:"call_graph"`
	Reduction []reductionJSON      `json:"reduction"`
	Edges     []DependencyEdge     `json:"dependency_edges"`
	GraphMeta dependencyGraphStats `json:"dependency_graph_stats"`
}

type seriesJSON struct {
	Component string    `json:"component"`
	Metric    string    `json:"metric"`
	Start     int64     `json:"start"`
	StepMS    int64     `json:"step_ms"`
	Values    []float64 `json:"values"`
}

type callEdgeJSON struct {
	Caller string `json:"caller"`
	Callee string `json:"callee"`
	Calls  int    `json:"calls"`
}

type reductionJSON struct {
	Component  string    `json:"component"`
	Total      int       `json:"total"`
	Filtered   []string  `json:"filtered,omitempty"`
	K          int       `json:"k"`
	Silhouette float64   `json:"silhouette"`
	Clusters   []Cluster `json:"clusters"`
}

type dependencyGraphStats struct {
	Bidirectional int `json:"bidirectional"`
	Tested        int `json:"tested"`
}

// artifactFormatVersion guards persisted artifacts against format drift.
const artifactFormatVersion = 1

// ValidateArtifact returns the error MarshalArtifact would refuse a with,
// or nil when a can be encoded: a nil artifact or dataset, or a NaN or
// infinite number where JSON has none — a component's silhouette, a
// dependency edge's p-value or F statistic, a series value. When several
// are bad it reports the first MarshalArtifact meets (silhouettes, then
// edges, then series in name order), without sorting anything. The
// online server checks a generation with it before publishing, and
// encodes only when the generation is first read.
func ValidateArtifact(a *Artifact) error {
	if a == nil || a.Dataset == nil {
		return errors.New("core: nil artifact or dataset")
	}
	// Maps are scanned in any order; the smallest name wins.
	badComp, found := "", false
	for comp, cr := range a.Reduction {
		if _, ok := a.Dataset.Series[comp]; ok && cr != nil && !finite(cr.Silhouette) && (!found || comp < badComp) {
			badComp, found = comp, true
		}
	}
	if found {
		return fmt.Errorf("core: component %s silhouette: json: unsupported value: %v", badComp, a.Reduction[badComp].Silhouette)
	}
	if a.Graph != nil {
		for i, e := range a.Graph.Edges {
			if !finite(e.PValue) || !finite(e.F) {
				return fmt.Errorf("core: dependency edge %d (%s/%s -> %s/%s): json: unsupported value: p=%v F=%v",
					i, e.From, e.FromMetric, e.To, e.ToMetric, e.PValue, e.F)
			}
		}
	}
	badMetric, badIdx := "", -1
	for comp, byMetric := range a.Dataset.Series {
		for metric, s := range byMetric {
			if badIdx >= 0 && (comp > badComp || comp == badComp && metric > badMetric) {
				continue
			}
			for i, v := range s.Values {
				if !finite(v) {
					badComp, badMetric, badIdx = comp, metric, i
					break
				}
			}
		}
	}
	if badIdx >= 0 {
		return fmt.Errorf("core: series %s/%s value %d: json: unsupported value: %v",
			badComp, badMetric, badIdx, a.Dataset.Series[badComp][badMetric].Values[badIdx])
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// MarshalArtifact serializes an artifact to JSON, one-space indented.
// The series' value arrays are nearly all of the output (hundreds of
// thousands of floats per artifact), so they are formatted straight into
// the indented output under encoding/json's float rules; everything else
// goes through encoding/json. The bytes are exactly those
// json.MarshalIndent(artifactJSON, "", " ") produces; what it refuses
// (NaN and infinite values) ValidateArtifact refuses first.
func MarshalArtifact(a *Artifact) ([]byte, error) {
	if err := ValidateArtifact(a); err != nil {
		return nil, err
	}
	head := artifactHead{
		Version: artifactFormatVersion,
		App:     a.App,
		StepMS:  a.Dataset.StepMS,
		Start:   a.Dataset.Start,
		End:     a.Dataset.End,
	}
	var tail artifactTail
	if a.Dataset.CallGraph != nil {
		for _, e := range a.Dataset.CallGraph.Edges() {
			tail.CallGraph = append(tail.CallGraph, callEdgeJSON{Caller: e.Caller, Callee: e.Callee, Calls: e.Calls})
		}
	}
	components := a.Dataset.Components()
	for _, comp := range components {
		cr := a.Reduction[comp]
		if cr == nil {
			continue
		}
		tail.Reduction = append(tail.Reduction, reductionJSON{
			Component:  cr.Component,
			Total:      cr.Total,
			Filtered:   cr.Filtered,
			K:          cr.K,
			Silhouette: cr.Silhouette,
			Clusters:   cr.Clusters,
		})
	}
	if a.Graph != nil {
		tail.Edges = a.Graph.Edges
		tail.GraphMeta = dependencyGraphStats{Bidirectional: a.Graph.Bidirectional, Tested: a.Graph.Tested}
	}

	headJSON, err := json.MarshalIndent(head, "", " ")
	if err != nil {
		return nil, err
	}
	tailJSON, err := json.MarshalIndent(tail, "", " ")
	if err != nil {
		return nil, err
	}

	// Sized for the longest value line, so the output is allocated once:
	// a newline and four spaces, the longest float and a comma.
	series, values := 0, 0
	for _, byMetric := range a.Dataset.Series {
		for _, s := range byMetric {
			series++
			values += len(s.Values)
		}
	}
	out := make([]byte, 0, len(headJSON)+len(tailJSON)+(5+jsonenc.MaxFloatBytes+1)*values+256*series)

	// Splice: the head object minus its closing "\n}", the series member,
	// the tail object minus its opening "{".
	out = append(out, headJSON[:len(headJSON)-2]...)
	out = append(out, ",\n \"series\": "...)
	if series == 0 {
		out = append(out, "null"...)
	} else {
		out = append(out, '[')
		first := true
		for _, comp := range components {
			for _, metric := range a.Dataset.MetricNames(comp) {
				if !first {
					out = append(out, ',')
				}
				first = false
				out = appendSeriesJSON(out, comp, metric, a.Dataset.Series[comp][metric])
			}
		}
		out = append(out, "\n ]"...)
	}
	out = append(out, ',')
	return append(out, tailJSON[1:]...), nil
}

// appendSeriesJSON appends one element of the "series" array — a
// seriesJSON at nesting depth two — the way json.MarshalIndent lays it
// out. Its values are finite: ValidateArtifact has checked them.
func appendSeriesJSON(out []byte, component, metric string, s *timeseries.Regular) []byte {
	out = append(out, "\n  {\n   \"component\": "...)
	out = jsonenc.AppendString(out, component)
	out = append(out, ",\n   \"metric\": "...)
	out = jsonenc.AppendString(out, metric)
	out = append(out, ",\n   \"start\": "...)
	out = strconv.AppendInt(out, s.Start, 10)
	out = append(out, ",\n   \"step_ms\": "...)
	out = strconv.AppendInt(out, s.StepMS, 10)
	out = append(out, ",\n   \"values\": "...)
	switch {
	case s.Values == nil:
		out = append(out, "null"...)
	case len(s.Values) == 0:
		out = append(out, "[]"...)
	default:
		out = append(out, '[')
		for i, v := range s.Values {
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, "\n    "...)
			out = jsonenc.AppendFloat(out, v)
		}
		out = append(out, "\n   ]"...)
	}
	return append(out, "\n  }"...)
}

// UnmarshalArtifact reconstructs an artifact serialized by
// MarshalArtifact.
func UnmarshalArtifact(data []byte) (*Artifact, error) {
	var in artifactJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("core: decoding artifact: %w", err)
	}
	if in.Version != artifactFormatVersion {
		return nil, fmt.Errorf("core: artifact format version %d, want %d", in.Version, artifactFormatVersion)
	}

	ds := &Dataset{
		App:    in.App,
		StepMS: in.StepMS,
		Start:  in.Start,
		End:    in.End,
		Series: map[string]map[string]*timeseries.Regular{},
	}
	for _, s := range in.Series {
		if s.Component == "" || s.Metric == "" {
			return nil, fmt.Errorf("core: series with empty identity %+v", s)
		}
		if ds.Series[s.Component] == nil {
			ds.Series[s.Component] = map[string]*timeseries.Regular{}
		}
		ds.Series[s.Component][s.Metric] = &timeseries.Regular{
			Name:   s.Metric,
			Start:  s.Start,
			StepMS: s.StepMS,
			Values: s.Values,
		}
	}
	ds.CallGraph = callgraph.New()
	for _, e := range in.CallGraph {
		ds.CallGraph.AddCall(e.Caller, e.Callee, e.Calls)
	}

	red := Reduction{}
	for _, r := range in.Reduction {
		cr := &ComponentReduction{
			Component:   r.Component,
			Total:       r.Total,
			Filtered:    r.Filtered,
			K:           r.K,
			Silhouette:  r.Silhouette,
			Clusters:    r.Clusters,
			Assignments: map[string]int{},
		}
		for _, c := range r.Clusters {
			for _, m := range c.Metrics {
				cr.Assignments[m] = c.ID
			}
		}
		red[r.Component] = cr
	}

	return &Artifact{
		App:       in.App,
		Dataset:   ds,
		Reduction: red,
		Graph: &DependencyGraph{
			Edges:         in.Edges,
			Bidirectional: in.GraphMeta.Bidirectional,
			Tested:        in.GraphMeta.Tested,
		},
	}, nil
}
