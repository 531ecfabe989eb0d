package kshape

import (
	"sort"
	"testing"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/app/openstack"
	"github.com/sieve-microservices/sieve/internal/app/sharelatex"
	"github.com/sieve-microservices/sieve/internal/strdist"
)

// referenceNameSeeds is the name seeding as it stood when the sweep
// called it once per k: the farthest-point traversal and every
// Jaro-Winkler comparison from scratch.
func referenceNameSeeds(names []string, k int) []int {
	n := len(names)
	assign := make([]int, n)
	if n == 0 || k <= 1 {
		return assign
	}
	if k > n {
		k = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return names[order[a]] < names[order[b]] })

	seeds := make([]int, 0, k)
	seeds = append(seeds, order[0])
	for len(seeds) < k {
		bestIdx, bestDist := -1, -1.0
		for _, i := range order {
			isSeed := false
			for _, s := range seeds {
				isSeed = isSeed || s == i
			}
			if isSeed {
				continue
			}
			closest := 2.0
			for _, s := range seeds {
				d := 1 - strdist.JaroWinkler(names[i], names[s])
				if d < closest {
					closest = d
				}
			}
			if closest > bestDist {
				bestDist, bestIdx = closest, i
			}
		}
		if bestIdx < 0 {
			break
		}
		seeds = append(seeds, bestIdx)
	}
	for i, name := range names {
		bestC, bestSim := 0, -1.0
		for c, s := range seeds {
			sim := strdist.JaroWinkler(name, names[s])
			if sim > bestSim {
				bestSim, bestC = sim, c
			}
		}
		assign[i] = bestC
	}
	return assign
}

// TestNameSeedingPrefixMatchesPerK: one traversal to kMax, read at each
// k, gives exactly what a traversal per k gave — on every component's
// metric names of both applications, and on inputs with duplicate and
// tied names.
func TestNameSeedingPrefixMatchesPerK(t *testing.T) {
	sl, err := sharelatex.New(1)
	if err != nil {
		t.Fatal(err)
	}
	ost, err := openstack.New(1, false)
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string][]string{
		"duplicates": {"cpu", "cpu", "mem", "cpu_user", "mem", "cpu"},
		"ties":       {"ab", "ba", "aa", "bb", "abab", "baba"},
		"single":     {"only"},
	}
	for _, a := range []*app.App{sl, ost} {
		a.Step(100) // components register their metrics on the first export
		for _, reg := range a.Registries() {
			for _, rd := range reg.Snapshot() {
				label := a.Name() + "/" + rd.Component
				sets[label] = append(sets[label], rd.Metric)
			}
		}
	}
	if len(sets) < 10 {
		t.Fatalf("only %d name sets; the applications exported nothing", len(sets))
	}
	for label, names := range sets {
		const kMax = 7
		seeding := newNameSeeding(names, kMax)
		for k := 0; k <= kMax+1; k++ {
			want := referenceNameSeeds(names, k)
			for what, got := range map[string][]int{"traversal to k": nameSeeds(names, k), "shared traversal": seeding.assignments(k)} {
				if k > kMax && what == "shared traversal" {
					continue // the sweep never asks past its kMax
				}
				if len(got) != len(want) {
					t.Fatalf("%s k=%d: %s returned %d assignments for %d names", label, k, what, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s k=%d: %s assigns %q to seed %d, per-k traversal to %d", label, k, what, names[i], got[i], want[i])
					}
				}
			}
		}
	}
}
