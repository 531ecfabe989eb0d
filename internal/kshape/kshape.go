package kshape

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/sieve-microservices/sieve/internal/mathx"
	"github.com/sieve-microservices/sieve/internal/timeseries"
)

// maxIterations bounds the refinement/assignment loop; k-Shape
// converges in a handful of iterations on metric workloads.
const maxIterations = 100

// Options configures a Cluster run.
type Options struct {
	// K is the number of clusters (required, >= 1).
	K int
	// Seed drives the one random initialization used when
	// InitialAssignments is nil.
	Seed int64
	// InitialAssignments optionally seeds the assignment (length must
	// equal the number of series, values in [0,K)). Sieve seeds by metric
	// name similarity (§3.2). k-Shape converges to a local optimum, so the
	// seed can change the result, not only how fast it is reached: renaming
	// every metric of a ShareLatex window, values untouched, changed the
	// chosen K in 3 of its 15 components.
	InitialAssignments []int
}

// Result is the outcome of a Cluster run.
type Result struct {
	// K is the number of clusters requested.
	K int
	// Assignments maps each input series index to its cluster in [0,K).
	Assignments []int
	// Centroids holds one z-normalized centroid per cluster; a cluster
	// that ended up empty has a zero centroid. The slices are read-only:
	// the results of one sweep (every k) may share them —
	// equal clusters extract one centroid between them, and all empty
	// clusters share one zero centroid.
	Centroids [][]float64
	// Distances holds each series' SBD to its assigned centroid,
	// bit-identical to SBD(Centroids[Assignments[i]], z-normalized series
	// i): the values the last assignment step compared, so picking a
	// cluster's representative needs no further correlation.
	Distances []float64
	// Iterations is the number of refinement iterations that ran.
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
// every candidate k of the silhouette sweep and by its distance matrix.
// This turns the O(pairs · k-values) transforms of the naive path into
// O(series).
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
	res, _, err := clusterOnce(p, opts, &s)
	return res, err
}

// clusterOnce runs k-Shape once over pre-computed spectra with
// caller-owned scratch, from opts.InitialAssignments or else from one
// random assignment drawn from opts.Seed, and returns the run and its
// final centroids (consistent with Result.Centroids).
func clusterOnce(p *prepared, opts Options, s *Scratch) (*Result, []*centroid, error) {
	n := len(p.norm)
	if opts.K < 1 {
		return nil, nil, fmt.Errorf("kshape: invalid K=%d", opts.K)
	}
	if opts.K > n {
		return nil, nil, fmt.Errorf("kshape: K=%d exceeds %d series", opts.K, n)
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

	// cents[c] is cluster c's current centroid, nil (an all-zero
	// reference) until the first refinement. Centroids come from the
	// sweep's memo, and every distance is read through them, so this run
	// correlates no (centroid, series) pair an earlier iteration or k of
	// the same sweep already did.
	memo := s.memoFor(p)
	cents := make([]*centroid, opts.K)
	prevAssign := make([]int, n)
	prevCents := make([]*centroid, opts.K)
	iterations := 0
	for iter := 0; iter < maxIterations; iter++ {
		iterations = iter + 1
		copy(prevAssign, assign)
		copy(prevCents, cents)

		// Refinement: re-extract each cluster's centroid, aligning members
		// to the previous centroid by the shifts the previous iteration's
		// assignment step found with their distances.
		for c := range cents {
			members := s.members[:0]
			for i, a := range assign {
				if a == c {
					members = append(members, i)
				}
			}
			s.members = members
			cents[c] = memo.refine(members, cents[c], s)
		}

		// Assignment: move every series to its closest centroid, the
		// lowest-indexed one on a tie. Most distances are not computed at
		// all: the series' distance to its own centroid seeds the running
		// minimum, and a candidate this sweep has not yet correlated with
		// the series, whose spectral lower bound already exceeds the
		// minimum by more than the kernel's rounding error, can neither
		// win nor tie.
		changed := false
		for i, x := range p.profiles {
			bestC := assign[i]
			best := cents[bestC].dist(i, p, s)
			for c, cent := range cents {
				if c == assign[i] || (!cent.rows[i].known && cent.profile.lowerBound(x) > best+pruneMargin) {
					continue
				}
				if d := cent.dist(i, p, s); d < best || (d == best && c < bestC) {
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
				if d := cents[a].dist(i, p, s); d > worstD {
					worstD, worstI = d, i
				}
			}
			if worstI >= 0 {
				assign[worstI] = c
				changed = true
			}
		}

		// An iteration is a pure function of (assign, centroids), so a
		// state equal bit for bit to the one it started from is a fixed
		// point: every later iteration repeats it, and running to the cap
		// would end on it. Such a state can still report `changed` — the
		// assignment step empties a cluster and the re-seed hands it back
		// the series that just left. The first iteration starts from no
		// centroids, so it cannot end on its start.
		if !changed || (iter > 0 && sameState(prevAssign, assign, prevCents, cents)) {
			break
		}
	}

	res := &Result{
		K:           opts.K,
		Assignments: assign,
		Centroids:   make([][]float64, opts.K),
		Distances:   make([]float64, n),
		Iterations:  iterations,
	}
	for c, cent := range cents {
		res.Centroids[c] = cent.values
	}
	for i, a := range assign {
		res.Distances[i] = cents[a].dist(i, p, s)
	}
	return res, cents, nil
}

// centroid is one signed centroid of a sweep: its z-normalized values,
// their spectrum, and the SBD of every series of the prepared set to it
// that the sweep has asked for so far. The rows belong to the signed
// centroid — SBD(-c, x) is not SBD(c, x) — and are filled on first use, so
// a (centroid, series) pair is correlated at most once however many
// iterations and candidate k meet the same centroid.
type centroid struct {
	values  []float64
	profile *sbdProfile
	rows    []sbdRow
}

// sbdRow is one series' distance to a centroid and the shift that aligns
// the series with it.
type sbdRow struct {
	dist  float64
	shift int32
	known bool
}

// sbd returns series i's distance to the centroid and its aligning
// shift, bit-identical to SBD(c.values, p.norm[i]).
func (c *centroid) sbd(i int, p *prepared, s *Scratch) (float64, int) {
	r := &c.rows[i]
	if !r.known {
		d, shift := c.profile.sbd(p.profiles[i], s)
		*r = sbdRow{dist: d, shift: int32(shift), known: true}
	}
	return r.dist, int(r.shift)
}

func (c *centroid) dist(i int, p *prepared, s *Scratch) float64 {
	d, _ := c.sbd(i, p, s)
	return d
}

// centroidMemo remembers every shape extraction of one sweep over one
// prepared set. An extraction is a pure function of the aligned member
// matrix — the power iteration starts from a fixed vector and the scratch
// it runs in never reaches a result — and that matrix is a pure function
// of the ordered member indices and each member's shift, which is the
// key. The sign fix depends on the run's own reference, so it is applied
// after the lookup and each extraction carries up to two signed centroids.
// A memo lives in its worker's Scratch and goes with it when the sweep
// returns; what it saves depends on how the sweep's runs fall to workers,
// what it returns does not.
type centroidMemo struct {
	p     *prepared
	byKey map[string]*extraction
	key   []byte
	zero  *centroid
}

// extraction is one memoized shape extraction: the z-normalized dominant
// eigenvector as the power iteration left it, and the signed centroids
// made of it so far (pos shares vec).
type extraction struct {
	vec      []float64
	pos, neg *centroid
}

func (m *centroidMemo) newCentroid(values []float64) *centroid {
	return &centroid{values: values, profile: newSBDProfile(values), rows: make([]sbdRow, len(m.p.norm))}
}

// refine returns the new centroid of a cluster from its members
// (ascending series indices) and its previous centroid ref, nil before
// the first refinement: members are aligned to ref, and the new centroid
// is the dominant eigenvector of Q·AᵀA·Q (A = aligned member rows, Q =
// centering matrix), which maximizes the summed squared cross-correlation
// to all members, z-normalized and sign-fixed against ref. An empty
// cluster gets the memo's one zero centroid.
func (m *centroidMemo) refine(members []int, ref *centroid, s *Scratch) *centroid {
	if len(members) == 0 {
		if m.zero == nil {
			m.zero = m.newCentroid(make([]float64, len(m.p.norm[0])))
		}
		return m.zero
	}
	// With no reference to align to (none yet, or an emptied cluster's
	// zeros) members stay where they are: shift 0, as SBD reports against
	// a zero-norm series.
	refIsZero := ref == nil || ref.profile.norm == 0
	shiftOf := func(i int) int {
		if refIsZero {
			return 0
		}
		_, shift := ref.sbd(i, m.p, s)
		return shift
	}
	key := m.key[:0]
	for _, i := range members {
		key = binary.LittleEndian.AppendUint32(key, uint32(i))
		key = binary.LittleEndian.AppendUint32(key, uint32(int32(shiftOf(i))))
	}
	m.key = key
	ext := m.byKey[string(key)]
	if ext == nil {
		aligned := s.aligned(len(members), len(m.p.norm[0]))
		for r, i := range members {
			alignInto(aligned[r], m.p.norm[i], shiftOf(i))
		}
		ext = &extraction{vec: extractShape(aligned, s)}
		m.byKey[string(key)] = ext
	}

	// Eigenvectors are sign-ambiguous; pick the orientation that better
	// correlates with the reference (or the first member for a fresh
	// cluster).
	base := m.p.norm[members[0]]
	if !refIsZero {
		base = ref.values
	}
	var dot float64
	for j, v := range ext.vec {
		dot += v * base[j]
	}
	if dot < 0 {
		if ext.neg == nil {
			neg := make([]float64, len(ext.vec))
			for j, v := range ext.vec {
				neg[j] = -v
			}
			ext.neg = m.newCentroid(neg)
		}
		return ext.neg
	}
	if ext.pos == nil {
		ext.pos = m.newCentroid(ext.vec)
	}
	return ext.pos
}

// extractShape runs shape extraction's power iteration over the aligned
// member rows and returns the z-normalized dominant eigenvector of
// Q·AᵀA·Q in a fresh slice, its sign as the iteration left it. All
// intermediates (centering buffers, power-iteration vectors) come from
// the scratch.
func extractShape(aligned [][]float64, s *Scratch) []float64 {
	s.eigenRuns++
	s.eigenRows += len(aligned)
	sLen := len(aligned[0])
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
	return timeseries.ZNormalize(vec)
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

// sameState reports whether two (assignments, centroids) states are
// equal, centroids compared bit for bit. Centroids are immutable once
// made, so equal pointers are equal values.
func sameState(assignA, assignB []int, centsA, centsB []*centroid) bool {
	for i, a := range assignA {
		if assignB[i] != a {
			return false
		}
	}
	for c, a := range centsA {
		b := centsB[c]
		if a == b {
			continue
		}
		for j, v := range a.values {
			if math.Float64bits(b.values[j]) != math.Float64bits(v) {
				return false
			}
		}
	}
	return true
}
