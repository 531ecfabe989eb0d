package kshape

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"github.com/sieve-microservices/sieve/internal/mathx"
)

// This file pins the exact fast path of the k-Shape sweep — the fused SBD
// kernel, the spectral lower bound that prunes the assignment step, the
// fixed-point stop and the centroid memo — to the straightforward
// code it replaced, which survives here as the references.

// referenceCorrelations counts the cross-correlations referenceDistShift
// has computed (the references that go through a Scratch are counted
// there).
var referenceCorrelations int

// referenceDistShift is distShift before the fused kernel: multiply the
// spectra into a full-size buffer, invert with RealIFFT, divide every
// coefficient by the norm product.
func referenceDistShift(p, q *sbdProfile) (float64, int) {
	if p.norm == 0 && q.norm == 0 {
		return 0, 0
	}
	if p.norm == 0 || q.norm == 0 {
		return 1, 0
	}
	referenceCorrelations++
	prod := make([]complex128, p.padded)
	for i := range prod {
		prod[i] = p.spectrum[i] * complex(real(q.spectrum[i]), -imag(q.spectrum[i]))
	}
	inv := mathx.RealIFFT(make([]float64, p.padded), prod)
	denom := p.norm * q.norm
	best, bestShift := math.Inf(-1), 0
	for sh := -(p.n - 1); sh <= p.n-1; sh++ {
		idx := sh
		if idx < 0 {
			idx += p.padded
		}
		if v := inv[idx] / denom; v > best {
			best, bestShift = v, sh
		}
	}
	return 1 - best, bestShift
}

// distShift is the shift-finding distance sbd replaced: the fused
// correlation, then one division per shift, keeping the first strictly
// largest quotient.
func (p *sbdProfile) distShift(q *sbdProfile, s *Scratch) (float64, int) {
	if d, ok := p.degenerate(q); ok {
		return d, 0
	}
	inv := p.correlate(q, s)
	denom := p.norm * q.norm
	best, bestShift := math.Inf(-1), 0
	for sh := -(p.n - 1); sh <= p.n-1; sh++ {
		idx := sh
		if idx < 0 {
			idx += p.padded
		}
		if v := inv[idx] / denom; v > best {
			best, bestShift = v, sh
		}
	}
	return 1 - best, bestShift
}

// referenceShapeExtraction is shape extraction before the memo: correlate
// every member with the reference centroid to align it, run the power
// iteration, fix the sign in place.
func referenceShapeExtraction(members [][]float64, memberProfiles []*sbdProfile, reference []float64, refProfile *sbdProfile, s *Scratch) []float64 {
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
	vec := extractShape(aligned, s)
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

// referenceClusterOnce is clusterOnce without the fast path: the
// assignment step computes the distance to every centroid, shape
// extraction transforms its reference centroid itself and re-correlates
// every member with it, every cluster is re-extracted every iteration,
// and a run that never reports convergence goes through every one of the
// maxIterations. It reports as its iterations the first one that ended
// on the state it started from, where the fast path stops, or else the
// iterations it ran.
func referenceClusterOnce(p *prepared, opts Options, s *Scratch) (*Result, []*sbdProfile) {
	n := len(p.norm)
	sLen := len(p.norm[0])
	assign := make([]int, n)
	if opts.InitialAssignments != nil {
		copy(assign, opts.InitialAssignments)
	} else {
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
	iterations, fixedAt := 0, 0
	for iter := 0; iter < maxIterations; iter++ {
		iterations = iter + 1
		prevAssign := append([]int(nil), assign...)
		prevCentroids := append([][]float64(nil), centroids...)
		for c := 0; c < opts.K; c++ {
			var members [][]float64
			var memberProfiles []*sbdProfile
			for i, a := range assign {
				if a == c {
					members = append(members, p.norm[i])
					memberProfiles = append(memberProfiles, p.profiles[i])
				}
			}
			var refProfile *sbdProfile
			if l2(centroids[c]) != 0 {
				refProfile = newSBDProfile(centroids[c])
			}
			centroids[c] = referenceShapeExtraction(members, memberProfiles, centroids[c], refProfile, s)
		}
		for c := range centProfiles {
			centProfiles[c] = newSBDProfile(centroids[c])
		}
		changed := false
		for i := range p.norm {
			best, bestC := 2.1, assign[i] // SBD is bounded by 2
			for c := 0; c < opts.K; c++ {
				d, _ := referenceDistShift(centProfiles[c], p.profiles[i])
				if d < best {
					best, bestC = d, c
				}
			}
			if bestC != assign[i] {
				assign[i] = bestC
				changed = true
			}
		}
		for c := 0; c < opts.K; c++ {
			if countOf(assign, c) > 0 {
				continue
			}
			worstI, worstD := -1, -1.0
			for i, a := range assign {
				if countOf(assign, a) <= 1 {
					continue
				}
				d, _ := referenceDistShift(centProfiles[a], p.profiles[i])
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
		if fixedAt == 0 && iter > 0 && sameBits(prevAssign, assign, prevCentroids, centroids) {
			fixedAt = iterations
		}
	}
	if fixedAt > 0 {
		iterations = fixedAt
	}
	dists := make([]float64, n)
	for i, a := range assign {
		dists[i], _ = referenceDistShift(centProfiles[a], p.profiles[i])
	}
	return &Result{K: opts.K, Assignments: assign, Centroids: centroids, Distances: dists, Iterations: iterations}, centProfiles
}

// sameBits reports whether two reference states are equal, centroids
// compared bit for bit.
func sameBits(assignA, assignB []int, centsA, centsB [][]float64) bool {
	for i, a := range assignA {
		if assignB[i] != a {
			return false
		}
	}
	for c, a := range centsA {
		for j, v := range a {
			if math.Float64bits(centsB[c][j]) != math.Float64bits(v) {
				return false
			}
		}
	}
	return true
}

func profilesOf(cents []*centroid) []*sbdProfile {
	out := make([]*sbdProfile, len(cents))
	for c, cent := range cents {
		out[c] = cent.profile
	}
	return out
}

// requireSameClustering compares two runs bit for bit: iteration count,
// assignments, each series' distance to its centroid, centroids, and the
// centroid profiles handed to callers.
func requireSameClustering(t *testing.T, what string, got, want *Result, gotCents []*centroid, wantProfiles []*sbdProfile) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: %d iterations, reference %d", what, got.Iterations, want.Iterations)
	}
	if len(got.Assignments) != len(want.Assignments) || len(got.Distances) != len(want.Distances) || len(got.Centroids) != len(want.Centroids) {
		t.Fatalf("%s: %d assignments, %d distances, %d centroids; reference %d, %d, %d", what,
			len(got.Assignments), len(got.Distances), len(got.Centroids), len(want.Assignments), len(want.Distances), len(want.Centroids))
	}
	for i := range want.Assignments {
		if got.Assignments[i] != want.Assignments[i] {
			t.Fatalf("%s: assignment[%d] = %d, reference %d", what, i, got.Assignments[i], want.Assignments[i])
		}
		if math.Float64bits(got.Distances[i]) != math.Float64bits(want.Distances[i]) {
			t.Fatalf("%s: distance[%d] = %v, reference %v", what, i, got.Distances[i], want.Distances[i])
		}
	}
	for c, cent := range gotCents {
		if &cent.values[0] != &got.Centroids[c][0] {
			t.Fatalf("%s: centroid %d handed to the caller is not the result's", what, c)
		}
	}
	gotProfiles := profilesOf(gotCents)
	for c := range want.Centroids {
		for j := range want.Centroids[c] {
			if math.Float64bits(got.Centroids[c][j]) != math.Float64bits(want.Centroids[c][j]) {
				t.Fatalf("%s: centroid[%d][%d] = %v, reference %v", what, c, j, got.Centroids[c][j], want.Centroids[c][j])
			}
		}
		for k := range wantProfiles[c].spectrum {
			if gotProfiles[c].spectrum[k] != wantProfiles[c].spectrum[k] {
				t.Fatalf("%s: centroid profile %d bin %d = %v, reference %v", what, c, k, gotProfiles[c].spectrum[k], wantProfiles[c].spectrum[k])
			}
		}
	}
}

// kernelPairs are the series pairs the kernel and the bound are pinned
// on at one length: noise, exact copies, scaled and shifted copies,
// sinusoids sitting on one FFT bin (where the bound is tight), and a
// zero-norm series.
func kernelPairs(rng *rand.Rand, n int) [][2][]float64 {
	noise := randomSeries(rng, 4, n)
	shifted := make([]float64, n)
	copy(shifted[n/3:], noise[0])
	scaled := make([]float64, n)
	for i, v := range noise[0] {
		scaled[i] = -7.5 * v
	}
	m := float64(mathx.NextPow2(2*n - 1))
	tone, toneLag, tone2 := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range tone {
		tone[i] = math.Sin(2 * math.Pi * 8 * float64(i) / m)
		toneLag[i] = math.Sin(2*math.Pi*8*float64(i)/m + 1)
		tone2[i] = math.Cos(2 * math.Pi * 24 * float64(i) / m)
	}
	zero := make([]float64, n)
	return [][2][]float64{
		{noise[0], noise[1]}, {noise[2], noise[3]},
		{noise[0], noise[0]}, {noise[0], shifted}, {noise[0], scaled},
		{tone, tone}, {tone, toneLag}, {tone, tone2}, {tone, noise[1]},
		{zero, noise[0]}, {noise[0], zero}, {zero, zero},
	}
}

// TestKernelFusedSBDBitIdentical: the fused kernel behind sbd, and the
// division it saves on all but the leading coefficients, against spectrum
// product + RealIFFT + one division per shift.
func TestKernelFusedSBDBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var s Scratch
	for _, n := range []int{2, 3, 73, 240} {
		for i, pair := range kernelPairs(rng, n) {
			p, q := newSBDProfile(pair[0]), newSBDProfile(pair[1])
			wantD, wantSh := referenceDistShift(p, q)
			gotD, gotSh := p.sbd(q, &s)
			if math.Float64bits(gotD) != math.Float64bits(wantD) || gotSh != wantSh {
				t.Fatalf("n=%d pair %d: sbd = (%v,%d), reference (%v,%d)", n, i, gotD, gotSh, wantD, wantSh)
			}
			if d := p.dist(q, &s); math.Float64bits(d) != math.Float64bits(wantD) {
				t.Fatalf("n=%d pair %d: dist = %v, reference %v", n, i, d, wantD)
			}
		}
	}
}

// requireFusedShift holds sbd to the distance of the
// largest-coefficient-first dist and to the distance and shift of the
// divide-every-shift distShift it replaced, bit for bit.
func requireFusedShift(t *testing.T, what string, p, q *sbdProfile, s *Scratch) {
	t.Helper()
	wantD, wantSh := p.distShift(q, s)
	gotD, gotSh := p.sbd(q, s)
	if math.Float64bits(gotD) != math.Float64bits(wantD) || gotSh != wantSh {
		t.Fatalf("%s: sbd = (%v,%d), distShift (%v,%d)", what, gotD, gotSh, wantD, wantSh)
	}
	if d := p.dist(q, s); math.Float64bits(gotD) != math.Float64bits(d) {
		t.Fatalf("%s: sbd distance %v, dist %v", what, gotD, d)
	}
}

// ulpsApart is the number of representable values between two finite
// floats of one sign.
func ulpsApart(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x < y {
		x, y = y, x
	}
	return x - y
}

// TestKernelFusedShiftMatchesDistShift: the one-pass shift rule — divide
// only a new largest coefficient — against the division per shift, on the
// inputs where picking the largest raw coefficient would go wrong: peaks
// that tie in exact arithmetic and come out of the FFT a few ulps apart.
func TestKernelFusedShiftMatchesDistShift(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var s Scratch
	for _, n := range []int{2, 3, 5, 73, 240} {
		for i, pair := range kernelPairs(rng, n) {
			requireFusedShift(t, fmt.Sprintf("n=%d pair %d", n, i), newSBDProfile(pair[0]), newSBDProfile(pair[1]), &s)
			requireFusedShift(t, fmt.Sprintf("n=%d pair %d reversed", n, i), newSBDProfile(pair[1]), newSBDProfile(pair[0]), &s)
		}
		for trial := 0; trial < 200; trial++ {
			pair := randomSeries(rng, 2, n)
			requireFusedShift(t, fmt.Sprintf("n=%d random %d", n, trial), newSBDProfile(pair[0]), newSBDProfile(pair[1]), &s)
		}
	}

	// Square waves and sinusoids: the correlation is periodic too, with a
	// peak every period, each a little lower than the one nearer lag 0.
	for _, period := range []int{4, 6, 16, 48} {
		for _, lag := range []int{0, 1, period / 2} {
			sq, sqLag := square(240, period, 0), square(240, period, lag)
			requireFusedShift(t, fmt.Sprintf("square period %d lag %d", period, lag), newSBDProfile(sq), newSBDProfile(sqLag), &s)
			sn, snLag := sine(240, float64(period), 0), sine(240, float64(period), 2*math.Pi*float64(lag)/float64(period))
			requireFusedShift(t, fmt.Sprintf("sine period %d lag %d", period, lag), newSBDProfile(sn), newSBDProfile(snLag), &s)
			requireFusedShift(t, fmt.Sprintf("square vs sine period %d lag %d", period, lag), newSBDProfile(sq), newSBDProfile(snLag), &s)
		}
	}

	// Signed zeros: an impulse against an impulse correlates to exact
	// zeros of either sign everywhere but one shift, and against its
	// negation the largest coefficient is itself a zero.
	for _, n := range []int{2, 8, 73} {
		a, b, neg := make([]float64, n), make([]float64, n), make([]float64, n)
		a[0], b[n-1], neg[0] = 1, 1, -1
		b[0] = math.Copysign(0, -1)
		for i, pair := range [][2][]float64{{a, b}, {b, a}, {a, neg}, {neg, a}, {neg, b}} {
			requireFusedShift(t, fmt.Sprintf("n=%d impulses %d", n, i), newSBDProfile(pair[0]), newSBDProfile(pair[1]), &s)
		}
	}

	// Mirror-symmetric series correlate symmetrically: CC_w = CC_-w in
	// exact arithmetic, so the two best coefficients sit at shifts -d and
	// +d, tied but for the transform's rounding — and SBD's rule gives the
	// pair to -d whenever the two round to one quotient, even when +d's
	// raw coefficient is the larger.
	closePairs, rawWouldMiss := 0, 0
	for _, n := range []int{16, 64, 240} {
		for trial := 0; trial < 400; trial++ {
			one, two := make([]float64, n), make([]float64, n)
			for j := 0; j < (n+1)/2; j++ {
				one[j], two[j] = rng.NormFloat64(), rng.NormFloat64()
				one[n-1-j], two[n-1-j] = one[j], two[j]
			}
			p, q := newSBDProfile(one), newSBDProfile(two)
			requireFusedShift(t, fmt.Sprintf("mirrored n=%d trial %d", n, trial), p, q, &s)

			_, shift := p.sbd(q, &s)
			if shift == 0 {
				continue
			}
			inv := p.correlate(q, &s)
			d := max(shift, -shift)
			lo, hi := inv[p.padded-d], inv[d] // shifts -d and +d
			if lo != hi && ulpsApart(lo, hi) <= 3 {
				closePairs++
				if hi > lo && shift == -d {
					rawWouldMiss++
				}
			}
		}
	}
	t.Logf("%d pairs with the two best coefficients 1-3 ulps apart, %d of them resolved to the earlier shift against the larger raw coefficient", closePairs, rawWouldMiss)
	if runtime.GOARCH == "amd64" && rawWouldMiss == 0 {
		t.Errorf("constructed pairs no longer tie: %d with the best coefficients 1-3 ulps apart, none where the largest raw coefficient is the wrong shift", closePairs)
	}
}

// square is a ±1 square wave of the given period, delayed by lag.
func square(n, period, lag int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
		if ((i+period-lag%period)%period)*2 >= period {
			out[i] = -1
		}
	}
	return out
}

// fuzzPair decodes the fuzzers' input: 16 bytes per index, one float64
// for each series. k-Shape only ever sees z-normalized values, so
// non-finite and huge ones are refused.
func fuzzPair(data []byte) (x, y []float64, ok bool) {
	n := len(data) / 16
	if n < 2 || n > 512 {
		return nil, nil, false
	}
	x, y = make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
		y[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) || math.Abs(x[i]) > 1e100 || math.Abs(y[i]) > 1e100 {
			return nil, nil, false
		}
	}
	return x, y, true
}

// FuzzKernelFusedShift feeds arbitrary finite series pairs to the fused
// shift rule.
func FuzzKernelFusedShift(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		x, y, ok := fuzzPair(data)
		if !ok {
			t.Skip()
		}
		p, q := newSBDProfile(x), newSBDProfile(y)
		// The rule rests on division by the norm product being monotone;
		// a product that underflowed to zero divides to NaNs, and dist
		// and distShift already disagreed with each other there.
		if denom := p.norm * q.norm; denom == 0 && p.norm != 0 && q.norm != 0 {
			t.Skip()
		}
		var s Scratch
		requireFusedShift(t, "fuzz", p, q, &s)
	})
}

// TestKernelLowerBoundProperty: the spectral bound never exceeds the
// computed distance by the pruning margin — in fact by nothing near it.
func TestKernelLowerBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var s Scratch
	worst := math.Inf(-1)
	check := func(x, y []float64) {
		p, q := newSBDProfile(x), newSBDProfile(y)
		lb, d := p.lowerBound(q), p.dist(q, &s)
		if lb > d+pruneMargin {
			t.Fatalf("lowerBound %v exceeds dist %v by more than the margin", lb, d)
		}
		if qlb := q.lowerBound(p); math.Abs(qlb-lb) > 1e-12 {
			t.Fatalf("lowerBound not symmetric: %v vs %v", lb, qlb)
		}
		worst = math.Max(worst, lb-d)
	}
	for _, n := range []int{2, 5, 73, 240} {
		for _, pair := range kernelPairs(rng, n) {
			check(pair[0], pair[1])
		}
		for trial := 0; trial < 200; trial++ {
			pair := randomSeries(rng, 2, n)
			check(pair[0], pair[1])
		}
	}
	// The margin must dominate the rounding error by orders of magnitude,
	// not barely cover it.
	if worst > pruneMargin/1e3 {
		t.Errorf("lowerBound exceeded a computed distance by %g; pruneMargin %g is supposed to dwarf that", worst, pruneMargin)
	}
}

// FuzzKernelLowerBound feeds arbitrary finite series pairs to the bound
// property.
func FuzzKernelLowerBound(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		x, y, ok := fuzzPair(data)
		if !ok {
			t.Skip()
		}
		p, q := newSBDProfile(x), newSBDProfile(y)
		var s Scratch
		if lb, d := p.lowerBound(q), p.dist(q, &s); lb > d+pruneMargin {
			t.Fatalf("lowerBound %v exceeds dist %v by more than the margin", lb, d)
		}
	})
}

// TestKernelPrunedAssignmentMatchesUnpruned: whole clustering runs with
// the pruned assignment step against the reference that computes every
// distance, random starts included.
func TestKernelPrunedAssignmentMatchesUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	var s, refS Scratch
	for trial := 0; trial < 12; trial++ {
		var series [][]float64
		if trial%2 == 0 {
			series = randomSeries(rng, 6+rng.Intn(20), 48+rng.Intn(80))
		} else {
			series, _ = twoShapeFamilies(rng, 4+rng.Intn(8), 96)
			// Duplicates and a constant make exact ties and a zero-norm
			// member.
			series = append(series, series[0], series[1], make([]float64, 96))
		}
		p, err := prepare(series)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{K: 2, Seed: int64(trial)},
			{K: 5, Seed: int64(trial)},
			{K: 3, Seed: int64(trial)},
			{K: 4, Seed: 9},
		} {
			got, gotProfiles, err := clusterOnce(p, opts, &s)
			if err != nil {
				t.Fatal(err)
			}
			want, wantProfiles := referenceClusterOnce(p, opts, &refS)
			requireSameClustering(t, fmt.Sprintf("trial %d %+v", trial, opts), got, want, gotProfiles, wantProfiles)
		}
	}
}

// oscillatingSeries is a constructed input whose refinement never
// reports convergence: every series has the same shape, so after each
// assignment step all of them sit in cluster 0, cluster 1 is empty, and
// the re-seed moves one series back — `changed` every time, on a state
// that repeats exactly.
func oscillatingSeries() [][]float64 {
	base := sine(64, 16, 0)
	out := make([][]float64, 5)
	for i := range out {
		out[i] = append([]float64(nil), base...)
	}
	return out
}

// capturedWindow loads testdata/oscillating_window.json: nine series of
// ShareLatex's spelling component over one 240-step window of the
// sievebench pipeline trace (window 6 of core.TestReduceHashPinned's
// capture) — the smallest subset of the component's 52 variance-filtered
// series whose name-seeded k-Shape run at the recorded k still burned
// all 100 iterations before the fixed-point stop existed.
func capturedWindow(t *testing.T) (names []string, series [][]float64, k int) {
	t.Helper()
	data, err := os.ReadFile("testdata/oscillating_window.json")
	if err != nil {
		t.Fatal(err)
	}
	var w struct {
		K      int         `json:"k"`
		Names  []string    `json:"names"`
		Series [][]float64 `json:"series"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	return w.Names, w.Series, w.K
}

// TestKernelPeriodicCutoffMatchesFullRun: on inputs whose refinement
// never reports convergence, the fixed-point stop ends the run early on
// exactly the clustering the reference reaches by running every one of
// the maxIterations.
func TestKernelPeriodicCutoffMatchesFullRun(t *testing.T) {
	names, captured, capturedK := capturedWindow(t)
	cases := []struct {
		name   string
		series [][]float64
		opts   Options
	}{
		{"constructed", oscillatingSeries(), Options{K: 2, InitialAssignments: []int{0, 0, 0, 1, 1}}},
		{"captured", captured, Options{K: capturedK, InitialAssignments: nameSeeds(names, capturedK)}},
	}
	for _, tc := range cases {
		p, err := prepare(tc.series)
		if err != nil {
			t.Fatal(err)
		}
		var s, refS Scratch
		want, wantProfiles := referenceClusterOnce(p, tc.opts, &refS)
		got, gotProfiles, err := clusterOnce(p, tc.opts, &s)
		if err != nil {
			t.Fatal(err)
		}
		requireSameClustering(t, tc.name, got, want, gotProfiles, wantProfiles)
		if got.Iterations >= maxIterations {
			t.Fatalf("%s: ran %d iterations, want the fixed-point stop before the cap of %d", tc.name, got.Iterations, maxIterations)
		}
		t.Logf("%s: fixed point after %d iterations", tc.name, got.Iterations)
	}
}

// TestKernelFastPathAllocs: with a warm scratch the bound, the fused
// distance-and-shift and its distance-only form allocate nothing.
func TestKernelFastPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	series := randomSeries(rng, 2, 240)
	p, q := newSBDProfile(series[0]), newSBDProfile(series[1])
	var s Scratch
	p.dist(q, &s)
	if allocs := testing.AllocsPerRun(50, func() {
		p.lowerBound(q)
		p.dist(q, &s)
		p.sbd(q, &s)
	}); allocs != 0 {
		t.Fatalf("warm lowerBound+dist+sbd allocate %v times per call, want 0", allocs)
	}
}
