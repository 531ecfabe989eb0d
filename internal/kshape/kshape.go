package kshape

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/sieve-microservices/sieve/internal/mathx"
	"github.com/sieve-microservices/sieve/internal/timeseries"
)

// DefaultMaxIterations bounds the refinement/assignment loop; k-Shape
// converges in a handful of iterations on metric workloads.
const DefaultMaxIterations = 100

// Options configures a Cluster run.
type Options struct {
	// K is the number of clusters (required, >= 1).
	K int
	// MaxIterations bounds the refinement loop; 0 means
	// DefaultMaxIterations.
	MaxIterations int
	// Seed drives the deterministic fallback initialization when
	// InitialAssignments is nil.
	Seed int64
	// InitialAssignments optionally seeds the assignment (length must
	// equal the number of series, values in [0,K)). Sieve seeds by metric
	// name similarity (§3.2); this only affects convergence speed, not the
	// fixed point.
	InitialAssignments []int
	// Restarts runs the algorithm this many times from different random
	// initializations (seeds Seed, Seed+1, ...) and keeps the run with the
	// lowest total within-cluster SBD, mitigating local optima. 0 or 1
	// means a single run. Ignored when InitialAssignments is set: a fixed
	// starting point has nothing to restart from, so the name-seeded
	// silhouette sweep (Sieve's default) runs each k once, not k x
	// restarts.
	Restarts int
}

// Result is the outcome of a Cluster run.
type Result struct {
	// K is the number of clusters requested.
	K int
	// Assignments maps each input series index to its cluster in [0,K).
	Assignments []int
	// Centroids holds one z-normalized centroid per cluster; a cluster
	// that ended up empty has a zero centroid.
	Centroids [][]float64
	// Iterations is the number of refinement iterations performed.
	Iterations int
}

// Members returns the series indices assigned to cluster c.
func (r *Result) Members(c int) []int {
	var out []int
	for i, a := range r.Assignments {
		if a == c {
			out = append(out, i)
		}
	}
	return out
}

// prepared is a component's batched clustering input: the z-normalized
// series and their cached spectra, computed once and shared read-only by
// every restart — and, in the silhouette sweep, by every candidate k and
// the distance matrix. This turns the O(pairs · restarts · k-values)
// transforms of the naive path into O(series).
type prepared struct {
	norm     [][]float64
	profiles []*sbdProfile
}

// prepare validates the series set and computes its normalized forms and
// spectra. The validation order and messages match the historical
// clusterOnce prologue.
func prepare(series [][]float64) (*prepared, error) {
	n := len(series)
	if n == 0 {
		return nil, errors.New("kshape: no series to cluster")
	}
	sLen := len(series[0])
	if sLen < 2 {
		return nil, fmt.Errorf("kshape: series length %d too short", sLen)
	}
	for i, s := range series {
		if len(s) != sLen {
			return nil, fmt.Errorf("kshape: series %d has length %d, want %d", i, len(s), sLen)
		}
		if timeseries.HasNaN(s) {
			return nil, fmt.Errorf("kshape: series %d contains NaN", i)
		}
	}
	p := &prepared{
		norm:     make([][]float64, n),
		profiles: make([]*sbdProfile, n),
	}
	for i, s := range series {
		p.norm[i] = timeseries.ZNormalize(s)
		p.profiles[i] = newSBDProfile(p.norm[i])
	}
	return p, nil
}

// Cluster runs k-Shape over the given series (all must share one length
// >= 2). Series are z-normalized internally, matching the algorithm's
// amplitude invariance. The run is deterministic for a fixed Options.
func Cluster(series [][]float64, opts Options) (*Result, error) {
	p, err := prepare(series)
	if err != nil {
		return nil, err
	}
	var s Scratch
	res, _, err := clusterPrepared(p, opts, &s)
	return res, err
}

// clusterPrepared runs Cluster's restart logic over pre-computed spectra
// with caller-owned scratch, returning the winning run and its final
// centroid profiles (consistent with Result.Centroids).
func clusterPrepared(p *prepared, opts Options, s *Scratch) (*Result, []*sbdProfile, error) {
	if opts.Restarts > 1 && opts.InitialAssignments == nil {
		var best *Result
		var bestProfiles []*sbdProfile
		bestCost := math.Inf(1)
		for r := 0; r < opts.Restarts; r++ {
			run := opts
			run.Restarts = 0
			run.Seed = opts.Seed + int64(r)
			res, centProfiles, err := clusterOnce(p, run, s)
			if err != nil {
				return nil, nil, err
			}
			if cost := totalWithin(res, centProfiles, p, s); cost < bestCost {
				bestCost, best, bestProfiles = cost, res, centProfiles
			}
		}
		return best, bestProfiles, nil
	}
	return clusterOnce(p, opts, s)
}

// totalWithin sums each series' distance to its assigned centroid, the
// objective used to compare restarts — computed over cached spectra,
// bit-identical to SBD(centroid, normalized series) per member.
func totalWithin(r *Result, centProfiles []*sbdProfile, p *prepared, s *Scratch) float64 {
	var total float64
	for i, a := range r.Assignments {
		total += centProfiles[a].dist(p.profiles[i], s)
	}
	return total
}

func clusterOnce(p *prepared, opts Options, s *Scratch) (*Result, []*sbdProfile, error) {
	n := len(p.norm)
	if opts.K < 1 {
		return nil, nil, fmt.Errorf("kshape: invalid K=%d", opts.K)
	}
	if opts.K > n {
		return nil, nil, fmt.Errorf("kshape: K=%d exceeds %d series", opts.K, n)
	}
	sLen := len(p.norm[0])
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}

	assign := make([]int, n)
	switch {
	case opts.InitialAssignments != nil:
		if len(opts.InitialAssignments) != n {
			return nil, nil, fmt.Errorf("kshape: %d initial assignments for %d series", len(opts.InitialAssignments), n)
		}
		for i, a := range opts.InitialAssignments {
			if a < 0 || a >= opts.K {
				return nil, nil, fmt.Errorf("kshape: initial assignment %d out of range [0,%d)", a, opts.K)
			}
			assign[i] = a
		}
	default:
		rng := rand.New(rand.NewSource(opts.Seed))
		for i := range assign {
			assign[i] = rng.Intn(opts.K)
		}
	}

	centroids := make([][]float64, opts.K)
	for c := range centroids {
		centroids[c] = make([]float64, sLen)
	}

	centProfiles := make([]*sbdProfile, opts.K)
	var history orbitHistory
	iterations := 0
	for iter := 0; iter < maxIter; iter++ {
		iterations = iter + 1

		// Refinement: re-extract each cluster's centroid, aligning members
		// to the previous centroid, whose profile the previous iteration's
		// assignment step built.
		for c := 0; c < opts.K; c++ {
			members := s.members[:0]
			memberProfiles := s.memberProfiles[:0]
			for i, a := range assign {
				if a == c {
					members = append(members, p.norm[i])
					memberProfiles = append(memberProfiles, p.profiles[i])
				}
			}
			s.members, s.memberProfiles = members, memberProfiles
			centroids[c] = shapeExtraction(members, memberProfiles, centroids[c], centProfiles[c], s)
		}

		// Assignment: move every series to its closest centroid, the
		// lowest-indexed one on a tie. Member FFTs are cached, so each
		// distance costs one fused spectrum product and inverse transform
		// — and most are not computed at all: the series' distance to its
		// own centroid seeds the running minimum, and a candidate whose
		// spectral lower bound already exceeds the minimum by more than
		// the kernel's rounding error can neither win nor tie.
		for c := range centProfiles {
			centProfiles[c] = newSBDProfile(centroids[c])
		}
		changed := false
		for i, x := range p.profiles {
			bestC := assign[i]
			best := centProfiles[bestC].dist(x, s)
			for c, cp := range centProfiles {
				if c == assign[i] || cp.lowerBound(x) > best+pruneMargin {
					continue
				}
				if d := cp.dist(x, s); d < best || (d == best && c < bestC) {
					best, bestC = d, c
				}
			}
			if bestC != assign[i] {
				assign[i] = bestC
				changed = true
			}
		}

		// Re-seed empty clusters deterministically with the series
		// farthest from its own centroid, so K stays meaningful.
		for c := 0; c < opts.K; c++ {
			if countOf(assign, c) > 0 {
				continue
			}
			worstI, worstD := -1, -1.0
			for i, a := range assign {
				if countOf(assign, a) <= 1 {
					continue // do not empty another cluster
				}
				d := centProfiles[a].dist(p.profiles[i], s)
				if d > worstD {
					worstD, worstI = d, i
				}
			}
			if worstI >= 0 {
				assign[worstI] = c
				changed = true
			}
		}

		if !changed {
			break
		}

		// An iteration is a pure function of (assign, centroids). When the
		// state repeats an earlier one bit for bit, every later iteration
		// repeats too — none of them converges, or the loop would have
		// ended inside the first lap — so the state after maxIter
		// iterations is already known: take it and stop.
		if final := history.closes(iterations, maxIter, assign, centroids); final != nil {
			copy(assign, final.assign)
			copy(centroids, final.centroids)
			for c := range centProfiles {
				centProfiles[c] = newSBDProfile(centroids[c])
			}
			iterations = maxIter
			break
		}
	}

	return &Result{
		K:           opts.K,
		Assignments: assign,
		Centroids:   centroids,
		Iterations:  iterations,
	}, centProfiles, nil
}

// shapeExtraction computes a cluster's new centroid: members are aligned
// to the current centroid, and the new centroid is the dominant
// eigenvector of Q·AᵀA·Q (A = aligned member rows, Q = centering matrix),
// which maximizes the summed squared cross-correlation to all members.
// refProfile is the reference's profile, nil before the first assignment
// step has built one (the reference is then all zeros). The result is
// z-normalized and sign-fixed against the reference. All
// intermediates (aligned rows, centering buffers, power-iteration
// vectors) come from the scratch; only the returned centroid is a fresh
// slice.
func shapeExtraction(members [][]float64, memberProfiles []*sbdProfile, reference []float64, refProfile *sbdProfile, s *Scratch) []float64 {
	sLen := len(reference)
	if len(members) == 0 {
		return make([]float64, sLen)
	}
	refIsZero := refProfile == nil || refProfile.norm == 0
	aligned := s.aligned(len(members), sLen)
	for i, m := range members {
		if refIsZero {
			copy(aligned[i], m)
			continue
		}
		_, shift := refProfile.distShift(memberProfiles[i], s)
		alignInto(aligned[i], m, shift)
	}

	if cap(s.centered) < sLen {
		s.centered = make([]float64, sLen)
	}
	centered := s.centered[:sLen]
	if cap(s.tmp) < len(aligned) {
		s.tmp = make([]float64, len(aligned))
	}
	tmp := s.tmp[:len(aligned)]

	// Implicit operator v -> Q AᵀA Q v, where Qv = v - mean(v).
	apply := func(dst, src []float64) {
		m := timeseries.Mean(src)
		for j, x := range src {
			centered[j] = x - m
		}
		for i, row := range aligned {
			var sum float64
			for j, v := range row {
				sum += v * centered[j]
			}
			tmp[i] = sum
		}
		for j := range dst {
			dst[j] = 0
		}
		for i, row := range aligned {
			w := tmp[i]
			if w == 0 {
				continue
			}
			for j, v := range row {
				dst[j] += w * v
			}
		}
		m = timeseries.Mean(dst)
		for j := range dst {
			dst[j] -= m
		}
	}
	vec, _ := mathx.DominantEigenWith(sLen, apply, 100, 1e-9, &s.eigen)
	vec = timeseries.ZNormalize(vec)

	// Eigenvectors are sign-ambiguous; pick the orientation that better
	// correlates with the reference (or the first member for a fresh
	// cluster).
	base := reference
	if refIsZero {
		base = aligned[0]
	}
	var dot float64
	for j := range vec {
		dot += vec[j] * base[j]
	}
	if dot < 0 {
		for j := range vec {
			vec[j] = -vec[j]
		}
	}
	return vec
}

func countOf(assign []int, c int) int {
	n := 0
	for _, a := range assign {
		if a == c {
			n++
		}
	}
	return n
}

// orbitDepth is how many past states the refinement loop remembers, and
// so the longest oscillation period it recognizes. Every orbit seen on
// application windows has period 1 — the assignment step empties a
// cluster, the re-seed hands it the series that just left, and `changed`
// is set on a state that did not change; the depth leaves room for the
// short genuine oscillations a k-means-style loop can fall into. A
// longer orbit simply runs to MaxIterations as before.
const orbitDepth = 8

// orbitState is the refinement loop's state after one iteration. Each
// iteration allocates fresh centroid slices, so keeping the K slice
// headers keeps the values.
type orbitState struct {
	assign    []int
	centroids [][]float64
}

// orbitHistory is a ring of the last orbitDepth states, the state after
// iteration t at index t % orbitDepth.
type orbitHistory [orbitDepth]orbitState

// closes records the state after iteration iter and reports whether it
// equals, bit for bit, the state after an earlier remembered iteration j.
// If so the loop is on an orbit of period iter-j, and closes returns the
// state iteration maxIter would end on: the remembered state at the same
// phase of the orbit. Otherwise it returns nil.
func (h *orbitHistory) closes(iter, maxIter int, assign []int, centroids [][]float64) *orbitState {
	for j := iter - 1; j >= iter-orbitDepth && j >= 1; j-- {
		if h[j%orbitDepth].equals(assign, centroids) {
			return &h[(j+(maxIter-j)%(iter-j))%orbitDepth]
		}
	}
	st := &h[iter%orbitDepth]
	st.assign = append(st.assign[:0], assign...)
	st.centroids = append(st.centroids[:0], centroids...)
	return nil
}

func (st *orbitState) equals(assign []int, centroids [][]float64) bool {
	for i, a := range assign {
		if st.assign[i] != a {
			return false
		}
	}
	for c, cent := range centroids {
		for j, v := range cent {
			if math.Float64bits(st.centroids[c][j]) != math.Float64bits(v) {
				return false
			}
		}
	}
	return true
}
