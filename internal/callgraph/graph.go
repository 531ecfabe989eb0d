// Package callgraph models which microservice components call which, the
// directed graph Sieve extracts from the syscall trace during the loading
// phase (§3.1) and later uses to restrict Granger testing to communicating
// component pairs (§3.3).
package callgraph

import (
	"sort"

	"github.com/sieve-microservices/sieve/internal/trace"
)

// Edge is one caller -> callee relationship with its observed call count.
type Edge struct {
	// Caller initiates the connections; Callee serves them.
	Caller, Callee string
	// Calls is the number of observed connections.
	Calls int
}

// Graph is a directed call graph between components.
type Graph struct {
	adj map[string]map[string]int
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{adj: map[string]map[string]int{}}
}

// AddCall records n calls from caller to callee (self-calls are ignored;
// a component talking to itself carries no cross-component information).
func (g *Graph) AddCall(caller, callee string, n int) {
	if caller == callee || caller == "" || callee == "" || n <= 0 {
		return
	}
	m := g.adj[caller]
	if m == nil {
		m = map[string]int{}
		g.adj[caller] = m
	}
	m[callee] += n
}

// Edges returns every edge sorted by (caller, callee).
func (g *Graph) Edges() []Edge {
	var out []Edge
	for caller, m := range g.adj {
		for callee, n := range m {
			out = append(out, Edge{Caller: caller, Callee: callee, Calls: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Caller != out[j].Caller {
			return out[i].Caller < out[j].Caller
		}
		return out[i].Callee < out[j].Callee
	})
	return out
}

// CommunicatingPairs returns the unordered component pairs connected by
// at least one edge, sorted. Sieve runs its pairwise Granger comparison
// exactly over these pairs instead of all O(n^2) combinations.
func (g *Graph) CommunicatingPairs() [][2]string {
	seen := map[[2]string]bool{}
	for caller, m := range g.adj {
		for callee := range m {
			a, b := caller, callee
			if a > b {
				a, b = b, a
			}
			seen[[2]string{a, b}] = true
		}
	}
	out := make([][2]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// FromSyscallEvents builds the call graph from a sysdig-like event
// stream: accept events establish which process owns each listening
// address, and connect events then resolve caller -> callee edges with no
// external knowledge — the context advantage over raw packet capture.
func FromSyscallEvents(events []trace.Event) *Graph {
	owner := map[string]string{}
	for _, e := range events {
		if e.Type == trace.EventAccept && e.Local != "" {
			owner[e.Local] = e.Process
		}
	}
	g := New()
	for _, e := range events {
		if e.Type != trace.EventConnect {
			continue
		}
		callee, ok := owner[e.Remote]
		if !ok {
			continue // connection to an unmonitored endpoint
		}
		g.AddCall(e.Process, callee, 1)
	}
	return g
}
