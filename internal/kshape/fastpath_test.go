package kshape

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/sieve-microservices/sieve/internal/mathx"
)

// This file pins the exact fast path of the k-Shape sweep — the fused SBD
// kernel, the spectral lower bound that prunes the assignment step, and
// the periodic-orbit cut-off — to the straightforward code it replaced,
// which survives here as the references.

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

// referenceClusterOnce is clusterOnce without the fast path: the
// assignment step computes the distance to every centroid, shape
// extraction transforms its reference centroid itself, and an
// oscillating run goes through every one of its MaxIterations.
func referenceClusterOnce(p *prepared, opts Options, s *Scratch) (*Result, []*sbdProfile) {
	n := len(p.norm)
	sLen := len(p.norm[0])
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
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
	iterations := 0
	for iter := 0; iter < maxIter; iter++ {
		iterations = iter + 1
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
			centroids[c] = shapeExtraction(members, memberProfiles, centroids[c], refProfile, s)
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
	}
	return &Result{K: opts.K, Assignments: assign, Centroids: centroids, Iterations: iterations}, centProfiles
}

// referenceClusterPrepared is clusterPrepared's restart logic over
// referenceClusterOnce.
func referenceClusterPrepared(p *prepared, opts Options, s *Scratch) (*Result, []*sbdProfile) {
	if opts.Restarts <= 1 || opts.InitialAssignments != nil {
		return referenceClusterOnce(p, opts, s)
	}
	var best *Result
	var bestProfiles []*sbdProfile
	bestCost := math.Inf(1)
	for r := 0; r < opts.Restarts; r++ {
		run := opts
		run.Restarts = 0
		run.Seed = opts.Seed + int64(r)
		res, centProfiles := referenceClusterOnce(p, run, s)
		var cost float64
		for i, a := range res.Assignments {
			d, _ := referenceDistShift(centProfiles[a], p.profiles[i])
			cost += d
		}
		if cost < bestCost {
			bestCost, best, bestProfiles = cost, res, centProfiles
		}
	}
	return best, bestProfiles
}

// requireSameClustering compares two runs bit for bit: iteration count,
// assignments, centroids, and the centroid profiles handed to callers.
func requireSameClustering(t *testing.T, what string, got, want *Result, gotProfiles, wantProfiles []*sbdProfile) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: %d iterations, reference %d", what, got.Iterations, want.Iterations)
	}
	for i := range want.Assignments {
		if got.Assignments[i] != want.Assignments[i] {
			t.Fatalf("%s: assignment[%d] = %d, reference %d", what, i, got.Assignments[i], want.Assignments[i])
		}
	}
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

// TestKernelFusedSBDBitIdentical: the fused kernel behind distShift, and
// dist's single division, against spectrum product + RealIFFT + one
// division per shift.
func TestKernelFusedSBDBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var s Scratch
	for _, n := range []int{2, 3, 73, 240} {
		for i, pair := range kernelPairs(rng, n) {
			p, q := newSBDProfile(pair[0]), newSBDProfile(pair[1])
			wantD, wantSh := referenceDistShift(p, q)
			gotD, gotSh := p.distShift(q, &s)
			if math.Float64bits(gotD) != math.Float64bits(wantD) || gotSh != wantSh {
				t.Fatalf("n=%d pair %d: distShift = (%v,%d), reference (%v,%d)", n, i, gotD, gotSh, wantD, wantSh)
			}
			if d := p.dist(q, &s); math.Float64bits(d) != math.Float64bits(wantD) {
				t.Fatalf("n=%d pair %d: dist = %v, reference %v", n, i, d, wantD)
			}
		}
	}
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
		n := len(data) / 16
		if n < 2 || n > 512 {
			t.Skip()
		}
		x, y := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			y[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			// k-Shape only ever sees z-normalized values; keep the norm
			// product finite.
			if math.IsNaN(x[i]) || math.IsNaN(y[i]) || math.Abs(x[i]) > 1e100 || math.Abs(y[i]) > 1e100 {
				t.Skip()
			}
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
// distance, random starts and restarts included.
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
			{K: 3, Seed: int64(trial), Restarts: 3},
			{K: 4, Seed: 9, MaxIterations: 3},
		} {
			got, gotProfiles, err := clusterPrepared(p, opts, &s)
			if err != nil {
				t.Fatal(err)
			}
			want, wantProfiles := referenceClusterPrepared(p, opts, &refS)
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
// all 100 iterations before the cut-off existed.
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

// TestKernelPeriodicCutoffMatchesFullRun: on inputs that oscillate, the
// cut-off lands on exactly the state the full MaxIterations run ends on,
// at every phase of the orbit.
func TestKernelPeriodicCutoffMatchesFullRun(t *testing.T) {
	names, captured, capturedK := capturedWindow(t)
	cases := []struct {
		name   string
		series [][]float64
		opts   Options
	}{
		{"constructed", oscillatingSeries(), Options{K: 2, InitialAssignments: []int{0, 0, 0, 1, 1}}},
		{"captured", captured, Options{K: capturedK, InitialAssignments: NameSeeds(names, capturedK)}},
	}
	for _, tc := range cases {
		p, err := prepare(tc.series)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxIter := range []int{0, 2, 5, 6, 7, 31} {
			opts := tc.opts
			opts.MaxIterations = maxIter
			var s, refS Scratch
			want, wantProfiles := referenceClusterOnce(p, opts, &refS)
			if maxIter == 0 && want.Iterations != DefaultMaxIterations {
				t.Fatalf("%s: reference converged after %d iterations; the input no longer oscillates", tc.name, want.Iterations)
			}
			got, gotProfiles, err := clusterOnce(p, opts, &s)
			if err != nil {
				t.Fatal(err)
			}
			requireSameClustering(t, fmt.Sprintf("%s MaxIterations=%d", tc.name, maxIter), got, want, gotProfiles, wantProfiles)
		}

		// The full loop could not finish this many iterations; returning
		// at all shows the cut-off is what ended the run.
		opts := tc.opts
		opts.MaxIterations = math.MaxInt32
		var s Scratch
		start := time.Now()
		got, _, err := clusterOnce(p, opts, &s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != math.MaxInt32 {
			t.Fatalf("%s: oscillating run reported %d iterations, want MaxIterations", tc.name, got.Iterations)
		}
		t.Logf("%s: orbit closed in %v", tc.name, time.Since(start))
	}
}

// TestKernelOrbitHistory drives the orbit detector with synthetic state
// sequences — a transient of `lead` states, then a cycle of `period` —
// and checks the state it jumps to against stepping all the way to
// maxIter.
func TestKernelOrbitHistory(t *testing.T) {
	// The state after iteration t, as a number: the transient counts up,
	// the cycle wraps.
	stateAt := func(t, lead, period int) int {
		if t <= lead {
			return t
		}
		return lead + 1 + (t-lead-1)%period
	}
	encode := func(v int) ([]int, [][]float64) {
		return []int{v % 3, v / 3}, [][]float64{{float64(v)}, {math.Copysign(0, -1)}}
	}
	for lead := 0; lead <= 10; lead++ {
		for period := 1; period <= orbitDepth+2; period++ {
			for _, maxIter := range []int{lead + period + 1, 40, 41, 100, 1 << 30} {
				var h orbitHistory
				var final *orbitState
				closedAt := 0
				for iter := 1; iter <= maxIter && iter <= 60; iter++ {
					assign, centroids := encode(stateAt(iter, lead, period))
					if final = h.closes(iter, maxIter, assign, centroids); final != nil {
						closedAt = iter
						break
					}
				}
				if period > orbitDepth {
					if final != nil {
						t.Fatalf("lead %d period %d: closed an orbit longer than the history", lead, period)
					}
					continue
				}
				// The orbit is first visible when the first cycle state
				// comes round again.
				if want := lead + 1 + period; closedAt != want && want <= maxIter {
					t.Fatalf("lead %d period %d maxIter %d: closed at iteration %d, want %d", lead, period, maxIter, closedAt, want)
				}
				wantAssign, wantCentroids := encode(stateAt(maxIter, lead, period))
				if !final.equals(wantAssign, wantCentroids) {
					t.Fatalf("lead %d period %d maxIter %d: jumped to %v, want state %d", lead, period, maxIter, final.assign, stateAt(maxIter, lead, period))
				}
			}
		}
	}

	// Equality is on bits: a centroid that differs only in the sign of a
	// zero is a different state.
	var h orbitHistory
	h.closes(1, 100, []int{0}, [][]float64{{0}})
	if h.closes(2, 100, []int{0}, [][]float64{{math.Copysign(0, -1)}}) != nil {
		t.Fatal("states differing in a zero's sign compared equal")
	}
}

// TestKernelFastPathAllocs: with a warm scratch the bound and both
// distance forms allocate nothing.
func TestKernelFastPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	series := randomSeries(rng, 2, 240)
	p, q := newSBDProfile(series[0]), newSBDProfile(series[1])
	var s Scratch
	p.dist(q, &s)
	if allocs := testing.AllocsPerRun(50, func() {
		p.lowerBound(q)
		p.dist(q, &s)
		p.distShift(q, &s)
	}); allocs != 0 {
		t.Fatalf("warm lowerBound+dist+distShift allocate %v times per call, want 0", allocs)
	}
}
