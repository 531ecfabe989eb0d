package kshape

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sieve-microservices/sieve/internal/timeseries"
)

// twoShapeFamilies builds series from two clearly different shape
// families: smooth sines and square waves, with per-series noise and
// random amplitudes/offsets (which z-normalization must neutralize).
func twoShapeFamilies(rng *rand.Rand, perFamily, n int) (series [][]float64, truth []int) {
	for f := 0; f < 2; f++ {
		for i := 0; i < perFamily; i++ {
			s := make([]float64, n)
			amp := 1 + rng.Float64()*9
			off := rng.NormFloat64() * 5
			for t := range s {
				var base float64
				if f == 0 {
					base = math.Sin(2 * math.Pi * float64(t) / 32)
				} else {
					// Square wave of a different period.
					if (t/8)%2 == 0 {
						base = 1
					} else {
						base = -1
					}
				}
				s[t] = off + amp*base + rng.NormFloat64()*0.05
			}
			series = append(series, s)
			truth = append(truth, f)
		}
	}
	return series, truth
}

func TestClusterSeparatesShapeFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	series, truth := twoShapeFamilies(rng, 8, 128)
	res, err := Cluster(series, Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ami, err := AMI(res.Assignments, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ami < 0.95 {
		t.Errorf("AMI vs ground truth = %g, want ~1 (assignments %v)", ami, res.Assignments)
	}
}

func TestClusterDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	series, _ := twoShapeFamilies(rng, 6, 64)
	a, err := Cluster(series, Options{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(series, Options{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("same seed produced different assignments at %d", i)
		}
	}
}

func TestClusterHonorsInitialAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	series, truth := twoShapeFamilies(rng, 5, 64)
	res, err := Cluster(series, Options{K: 2, InitialAssignments: truth})
	if err != nil {
		t.Fatal(err)
	}
	ami, err := AMI(res.Assignments, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ami < 0.95 {
		t.Errorf("starting from truth must stay at truth, AMI = %g", ami)
	}
	if res.Iterations > 5 {
		t.Errorf("converged in %d iterations, want few when seeded at truth", res.Iterations)
	}
}

func TestClusterKEqualsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	series, _ := twoShapeFamilies(rng, 3, 32)
	res, err := Cluster(series, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assignments {
		if a != 0 {
			t.Fatal("K=1 must assign everything to cluster 0")
		}
	}
	if len(res.Members(0)) != len(series) {
		t.Error("Members(0) must return all series")
	}
}

func TestClusterValidation(t *testing.T) {
	good := [][]float64{{1, 2, 3}, {4, 5, 6}}
	cases := []struct {
		name   string
		series [][]float64
		opts   Options
	}{
		{"no series", nil, Options{K: 1}},
		{"bad K", good, Options{K: 0}},
		{"K too large", good, Options{K: 3}},
		{"short series", [][]float64{{1}, {2}}, Options{K: 1}},
		{"ragged", [][]float64{{1, 2, 3}, {1, 2}}, Options{K: 1}},
		{"NaN", [][]float64{{1, 2, math.NaN()}, {1, 2, 3}}, Options{K: 1}},
		{"bad init len", good, Options{K: 2, InitialAssignments: []int{0}}},
		{"bad init range", good, Options{K: 2, InitialAssignments: []int{0, 5}}},
	}
	for _, tc := range cases {
		if _, err := Cluster(tc.series, tc.opts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestClusterCentroidMatchesFamilyShape(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	series, truth := twoShapeFamilies(rng, 8, 128)
	res, err := Cluster(series, Options{K: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Each centroid must be very close (SBD) to the members of the family
	// it represents. Centroids live on the z-normalized scale, so members
	// are normalized before comparison (SBD is scale- but not
	// offset-invariant).
	for c := 0; c < 2; c++ {
		members := res.Members(c)
		if len(members) == 0 {
			t.Fatalf("cluster %d is empty", c)
		}
		for _, i := range members {
			d, _ := SBD(res.Centroids[c], timeseries.ZNormalize(series[i]))
			if d > 0.2 {
				t.Errorf("centroid %d far from member %d (truth %d): SBD=%g", c, i, truth[i], d)
			}
		}
	}
}

// nameSeeds is the name-seeded initial assignment for k clusters, the way
// the sweep reads it off a traversal run to kMax = k.
func nameSeeds(names []string, k int) []int {
	return newNameSeeding(names, k).assignments(k)
}

func TestNameSeedsGroupsByPrefix(t *testing.T) {
	names := []string{
		"cpu_usage_mean", "cpu_usage_p95", "cpu_usage_max",
		"net_bytes_in", "net_bytes_out", "net_bytes_dropped",
	}
	seeds := nameSeeds(names, 2)
	if len(seeds) != len(names) {
		t.Fatalf("got %d assignments, want %d", len(seeds), len(names))
	}
	// The three cpu_* names must share a cluster, likewise net_*.
	if seeds[0] != seeds[1] || seeds[1] != seeds[2] {
		t.Errorf("cpu metrics split across clusters: %v", seeds)
	}
	if seeds[3] != seeds[4] || seeds[4] != seeds[5] {
		t.Errorf("net metrics split across clusters: %v", seeds)
	}
	if seeds[0] == seeds[3] {
		t.Errorf("cpu and net metrics merged: %v", seeds)
	}
}

func TestNameSeedsDegenerate(t *testing.T) {
	if got := nameSeeds(nil, 3); len(got) != 0 {
		t.Error("empty names must give empty assignment")
	}
	got := nameSeeds([]string{"a", "b"}, 1)
	if got[0] != 0 || got[1] != 0 {
		t.Error("k=1 must assign all to 0")
	}
	// k > n clamps.
	got = nameSeeds([]string{"a", "b"}, 5)
	for _, g := range got {
		if g < 0 || g >= 2 {
			t.Errorf("assignment %d out of range", g)
		}
	}
}
