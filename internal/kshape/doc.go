// Package kshape implements the k-Shape time-series clustering
// algorithm (Paparrizos & Gravano, SIGMOD 2015) that Sieve uses to
// reduce each component's metrics to a handful of representative ones
// (§3.2), together with the pieces the paper layers on top.
//
// The building blocks map onto the files:
//
//   - sbd.go: the shape-based distance (SBD), a cross-correlation
//     distance computed via FFT, and the normalized cross-correlation
//     sequence it derives from; over cached spectra one correlation
//     yields the distance and the aligning shift together.
//   - kshape.go: the iterative refinement loop — assignment by SBD,
//     centroid extraction as the maximizing eigenvector of a
//     Rayleigh-quotient problem — run once per k from one start:
//     metric-name seeding of the initial assignment (seed.go), which
//     mirrors the paper's observation that similarly named metrics tend
//     to cluster and is what the pipeline runs, or one seeded random
//     assignment when there are no names. Within one sweep no work is
//     done twice: a centroid
//     keeps the distance and shift of every series it has been compared
//     with, and a cluster whose members and shifts were seen before —
//     an iteration earlier, or at another k — reuses that extraction
//     (the centroid memo, held by the worker's Scratch). Both are exact:
//     docs/ARCHITECTURE.md, "The exact fast path of the k-Shape sweep".
//   - silhouette.go, eval.go: silhouette-based selection of the cluster
//     count k within a configured range (ChooseKFromDist), and the
//     Adjusted Mutual Information score used to evaluate clustering
//     consistency across runs (Fig. 3).
//
// ChooseKFromDist fans candidate k values out to a worker pool; results
// are bit-identical at any worker count.
package kshape
