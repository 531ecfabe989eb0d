package kshape

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestSilhouetteKnownGeometry(t *testing.T) {
	// Four points, two tight pairs far apart.
	dist := [][]float64{
		{0, 0.1, 1.0, 1.0},
		{0.1, 0, 1.0, 1.0},
		{1.0, 1.0, 0, 0.1},
		{1.0, 1.0, 0.1, 0},
	}
	good, err := Silhouette(dist, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if good < 0.85 {
		t.Errorf("good assignment silhouette = %g, want ~0.9", good)
	}
	bad, err := Silhouette(dist, []int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if bad >= good {
		t.Errorf("bad assignment silhouette %g not worse than good %g", bad, good)
	}
}

func TestSilhouetteSingleCluster(t *testing.T) {
	dist := [][]float64{{0, 1}, {1, 0}}
	s, err := Silhouette(dist, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Errorf("single cluster silhouette = %g, want 0", s)
	}
}

func TestSilhouetteErrors(t *testing.T) {
	if _, err := Silhouette(nil, nil); err == nil {
		t.Error("expected error for empty assignment")
	}
	if _, err := Silhouette([][]float64{{0}}, []int{0, 1}); err == nil {
		t.Error("expected error for size mismatch")
	}
}

// referenceSilhouette is Silhouette as it was: clusters in a map, ranged
// once per point in whatever order the runtime picks.
func referenceSilhouette(dist [][]float64, assign []int) float64 {
	n := len(assign)
	clusters := map[int][]int{}
	for i, a := range assign {
		clusters[a] = append(clusters[a], i)
	}
	if len(clusters) < 2 {
		return 0
	}
	var total float64
	for i := 0; i < n; i++ {
		own := clusters[assign[i]]
		if len(own) <= 1 {
			continue
		}
		var a float64
		for _, j := range own {
			if j != i {
				a += dist[i][j]
			}
		}
		a /= float64(len(own) - 1)
		b := math.Inf(1)
		for c, members := range clusters {
			if c == assign[i] {
				continue
			}
			var d float64
			for _, j := range members {
				d += dist[i][j]
			}
			d /= float64(len(members))
			if d < b {
				b = d
			}
		}
		if den := math.Max(a, b); den > 0 {
			total += (b - a) / den
		}
	}
	return total / float64(n)
}

// TestSilhouetteMatchesMapReference: clusters held in a slice by id give
// the bits the map gave — same members in the same order under every sum,
// and the nearest other cluster is a minimum — with ids that skip values
// (an emptied cluster) included.
func TestSilhouetteMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		series := randomSeries(rng, n, 32)
		dist, err := PairwiseSBD(series)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(n)
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		got, err := Silhouette(dist, assign)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceSilhouette(dist, assign); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (n=%d, k=%d): silhouette %v, map reference %v", trial, n, k, got, want)
		}
	}
	dist := [][]float64{{0, 1}, {1, 0}}
	for _, assign := range [][]int{{0, 2}, {-1, 0}} {
		if _, err := Silhouette(dist, assign); err == nil {
			t.Errorf("assignment %v: expected an error for a cluster id outside [0,2)", assign)
		}
	}
}

func TestChooseKFindsTwoFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	series, truth := twoShapeFamilies(rng, 6, 96)
	sweep, err := ChooseKContext(context.Background(), series, nil, 2, 5, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.K != 2 {
		t.Errorf("ChooseKContext selected k=%d (scores %v), want 2", sweep.K, sweep.Scores)
	}
	ami, err := AMI(sweep.Assignments, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ami < 0.9 {
		t.Errorf("winning clustering AMI = %g, want high", ami)
	}
	if len(sweep.Scores) != 4 {
		t.Errorf("scores for %d values of k, want 4", len(sweep.Scores))
	}
}

func TestChooseKWithNameSeeding(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	series, _ := twoShapeFamilies(rng, 4, 64)
	names := []string{
		"sine_a", "sine_b", "sine_c", "sine_d",
		"square_a", "square_b", "square_c", "square_d",
	}
	sweep, err := ChooseKContext(context.Background(), series, names, 2, 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.K != 2 {
		t.Errorf("k = %d, want 2", sweep.K)
	}
}

func TestChooseKDegenerate(t *testing.T) {
	if _, err := ChooseKContext(context.Background(), nil, nil, 2, 5, 0, 1); err == nil {
		t.Error("expected error for no series")
	}
	if _, err := ChooseKContext(context.Background(), [][]float64{{1, 2, 3}}, nil, 0, 5, 0, 1); err == nil {
		t.Error("expected error for invalid k range")
	}
	if _, err := ChooseKContext(context.Background(), [][]float64{{1, 2}, {3, 4}}, []string{"a"}, 2, 3, 0, 1); err == nil {
		t.Error("expected error for name count mismatch")
	}
	// A single series degenerates to one cluster.
	sweep, err := ChooseKContext(context.Background(), [][]float64{{1, 2, 3}}, nil, 2, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.K != 1 || sweep.Assignments[0] != 0 {
		t.Errorf("single series: k=%d assign=%v", sweep.K, sweep.Assignments)
	}
	// kMax clamps to n.
	sweep, err = ChooseKContext(context.Background(), [][]float64{{1, 2, 9}, {2, 4, 1}, {5, 1, 2}}, nil, 2, 50, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.K > 3 {
		t.Errorf("k = %d exceeds series count", sweep.K)
	}
}
