package kshape

import (
	"sort"

	"github.com/sieve-microservices/sieve/internal/strdist"
)

// nameSeeding produces initial cluster assignments from metric names:
// seed names are chosen by deterministic farthest-point traversal under
// Jaro-Winkler distance and every name is assigned to its most similar
// seed. Developers name related metrics similarly ("cpu_usage",
// "cpu_usage_percentile"), so this starts k-Shape close to a fixed point
// (§3.2). Which fixed point it reaches depends on that start, so the
// names can change the clusters and the chosen k, not only the
// convergence speed (see Options.InitialAssignments). The traversal is run once
// to kMax seeds: it picks seed c from the names and
// the seeds before it alone, so the seeds for k clusters are the first k
// of the seeds for any larger count; a silhouette sweep traverses once
// and reads every candidate k's assignment off the cached similarities.
type nameSeeding struct {
	n int
	// sim[c][i] is the Jaro-Winkler similarity of name i to seed c.
	sim [][]float64
}

func newNameSeeding(names []string, kMax int) *nameSeeding {
	n := len(names)
	ns := &nameSeeding{n: n}
	if n == 0 || kMax <= 1 {
		return ns
	}
	if kMax > n {
		kMax = n
	}

	// Deterministic order regardless of input permutation: work on the
	// lexicographically smallest name first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return names[order[a]] < names[order[b]] })

	// closest[i] is name i's distance to the closest seed chosen so far.
	closest := make([]float64, n)
	for i := range closest {
		closest[i] = 2
	}
	isSeed := make([]bool, n)
	seed := order[0]
	for {
		isSeed[seed] = true
		col := make([]float64, n)
		for i, name := range names {
			col[i] = strdist.JaroWinkler(name, names[seed])
			if d := 1 - col[i]; d < closest[i] {
				closest[i] = d
			}
		}
		ns.sim = append(ns.sim, col)
		if len(ns.sim) == kMax {
			return ns
		}
		// Next seed: the name farthest from every seed so far, the first
		// in name order on a tie.
		bestDist := -1.0
		for _, i := range order {
			if !isSeed[i] && closest[i] > bestDist {
				bestDist, seed = closest[i], i
			}
		}
	}
}

// assignments maps every name to the most similar of the first k seeds,
// the earliest-chosen one on a tie.
func (ns *nameSeeding) assignments(k int) []int {
	assign := make([]int, ns.n)
	if k > len(ns.sim) {
		k = len(ns.sim)
	}
	for i := range assign {
		bestSim := -1.0
		for c, col := range ns.sim[:k] {
			if col[i] > bestSim {
				bestSim, assign[i] = col[i], c
			}
		}
	}
	return assign
}
