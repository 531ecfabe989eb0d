package callgraph

import (
	"reflect"
	"testing"

	"github.com/sieve-microservices/sieve/internal/trace"
)

func TestGraphBasicOps(t *testing.T) {
	g := New()
	g.AddCall("web", "db", 3)
	g.AddCall("web", "db", 2)
	g.AddCall("web", "cache", 1)
	g.AddCall("cache", "db", 1)

	wantEdges := []Edge{{"cache", "db", 1}, {"web", "cache", 1}, {"web", "db", 5}}
	if got := g.Edges(); !reflect.DeepEqual(got, wantEdges) {
		t.Errorf("Edges() = %v, want %v", got, wantEdges)
	}
}

func TestGraphIgnoresDegenerateEdges(t *testing.T) {
	g := New()
	g.AddCall("a", "a", 5) // self
	g.AddCall("", "b", 1)  // empty caller
	g.AddCall("a", "", 1)  // empty callee
	g.AddCall("a", "b", 0) // non-positive count
	if len(g.Edges()) != 0 {
		t.Errorf("edges = %v, want none", g.Edges())
	}
}

func TestGraphEdgesSorted(t *testing.T) {
	g := New()
	g.AddCall("z", "a", 1)
	g.AddCall("a", "z", 2)
	g.AddCall("a", "b", 3)
	edges := g.Edges()
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
	if edges[0].Caller != "a" || edges[0].Callee != "b" {
		t.Errorf("first edge = %+v", edges[0])
	}
	if edges[2].Caller != "z" {
		t.Errorf("last edge = %+v", edges[2])
	}
}

func TestCommunicatingPairsDeduplicated(t *testing.T) {
	g := New()
	g.AddCall("a", "b", 1)
	g.AddCall("b", "a", 1) // same unordered pair
	g.AddCall("b", "c", 1)
	pairs := g.CommunicatingPairs()
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v, want 2 unique", pairs)
	}
	if pairs[0] != [2]string{"a", "b"} || pairs[1] != [2]string{"b", "c"} {
		t.Errorf("pairs = %v", pairs)
	}
}

func TestFromSyscallEvents(t *testing.T) {
	events := []trace.Event{
		// db listens on 10.0.0.2:5432 (accept establishes ownership).
		{Type: trace.EventAccept, Process: "db", Local: "10.0.0.2:5432", Remote: "10.0.0.1:40001"},
		// web connects to db twice.
		{Type: trace.EventConnect, Process: "web", Local: "10.0.0.1:40001", Remote: "10.0.0.2:5432"},
		{Type: trace.EventConnect, Process: "web", Local: "10.0.0.1:40002", Remote: "10.0.0.2:5432"},
		// Reads and writes must not create edges.
		{Type: trace.EventWrite, Process: "web", Local: "10.0.0.1:40001", Remote: "10.0.0.2:5432", Bytes: 100},
		// Connect to an unmonitored endpoint is dropped.
		{Type: trace.EventConnect, Process: "web", Remote: "8.8.8.8:53"},
	}
	g := FromSyscallEvents(events)
	if want := []Edge{{"web", "db", 2}}; !reflect.DeepEqual(g.Edges(), want) {
		t.Errorf("edges = %v, want %v", g.Edges(), want)
	}
}
