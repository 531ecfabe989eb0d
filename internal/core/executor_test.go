package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestReduceParallelismDeterminism asserts the per-component fan-out
// produces the same reduction as the sequential loop at several worker
// counts, pinned through GOMAXPROCS (the fan-out's only size).
func TestReduceParallelismDeterminism(t *testing.T) {
	ds := captureChain(t, 150)
	opts := DefaultReduceOptions()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq, err := ReduceContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 16} {
		runtime.GOMAXPROCS(par)
		got, err := ReduceContext(context.Background(), ds, opts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(seq, got) {
			t.Errorf("parallelism %d: reduction differs from sequential", par)
		}
	}
}

// TestIdentifyDependenciesParallelismDeterminism asserts the per-pair
// fan-out merges edges and counters identically to the sequential loop.
func TestIdentifyDependenciesParallelismDeterminism(t *testing.T) {
	ds := captureChain(t, 150)
	red, err := ReduceContext(context.Background(), ds, DefaultReduceOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq, err := IdentifyDependenciesContext(context.Background(), ds, red, DepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Tested == 0 {
		t.Fatal("no pairs tested; fixture too small")
	}
	for _, par := range []int{2, 8} {
		runtime.GOMAXPROCS(par)
		got, err := IdentifyDependenciesContext(context.Background(), ds, red, DepOptions{})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(seq, got) {
			t.Errorf("parallelism %d: graph differs from sequential", par)
		}
	}
}

// TestReduceContextCanceled asserts a canceled context surfaces as
// context.Canceled instead of a partial reduction.
func TestReduceContextCanceled(t *testing.T) {
	ds := captureChain(t, 120)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReduceContext(ctx, ds, DefaultReduceOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestIdentifyDependenciesContextCanceled mirrors the Reduce case for
// step 3.
func TestIdentifyDependenciesContextCanceled(t *testing.T) {
	ds := captureChain(t, 120)
	red, err := ReduceContext(context.Background(), ds, DefaultReduceOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := IdentifyDependenciesContext(ctx, ds, red, DepOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestInnerBudget pins the nested-pool sizing: sequential once the
// outer fan-out fills the budget, ceiling-split leftovers otherwise.
func TestInnerBudget(t *testing.T) {
	cases := []struct {
		workers, outer, want int
	}{
		{16, 16, 1}, // outer fills the pool
		{16, 20, 1}, // outer exceeds the pool
		{16, 15, 2}, // ceil(16/15)
		{16, 3, 6},  // ceil(16/3)
		{1, 5, 1},   // sequential stays sequential
		{8, 0, 1},   // empty outer stage
	}
	for _, c := range cases {
		if got := innerBudget(c.workers, c.outer); got != c.want {
			t.Errorf("innerBudget(%d, %d) = %d, want %d", c.workers, c.outer, got, c.want)
		}
	}
}

// TestDOTMatchesEdgesBetween pins the single-pass DOT rendering to the
// per-pair EdgesBetween counts it replaced.
func TestDOTMatchesEdgesBetween(t *testing.T) {
	g := &DependencyGraph{Edges: []DependencyEdge{
		{From: "a", To: "b", FromMetric: "m1", ToMetric: "m2"},
		{From: "a", To: "b", FromMetric: "m3", ToMetric: "m4"},
		{From: "b", To: "c", FromMetric: "m5", ToMetric: "m6"},
	}}
	dot := g.DOT()
	for _, p := range g.ComponentPairs() {
		want := fmt.Sprintf("%q -> %q [label=%d];", p[0], p[1], len(g.EdgesBetween(p[0], p[1])))
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %s in:\n%s", want, dot)
		}
	}
	if strings.Count(dot, "->") != 2 {
		t.Errorf("DOT has %d edges, want 2:\n%s", strings.Count(dot, "->"), dot)
	}
}
