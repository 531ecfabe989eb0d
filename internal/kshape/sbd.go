package kshape

import (
	"context"
	"fmt"
	"math"

	"github.com/sieve-microservices/sieve/internal/mathx"
)

// NCC returns the normalized cross-correlation profile of two equal-length
// series: entry k corresponds to shift s = k-(n-1) and holds
// CC_s(x,y) / (||x||·||y||). When either series has zero norm the profile
// is all zeros.
func NCC(x, y []float64) []float64 {
	if len(x) != len(y) || len(x) == 0 {
		panic(fmt.Sprintf("kshape: NCC needs equal non-empty lengths, got %d and %d", len(x), len(y)))
	}
	// Both spectra at the padded size, one correlation, and the circular
	// result's negative shifts unwrapped from the tail of the buffer.
	n := len(x)
	m := mathx.NextPow2(2*n - 1)
	fx := mathx.RealFFT(make([]complex128, m), x, m)
	fy := mathx.RealFFT(make([]complex128, m), y, m)
	z := mathx.CorrelateSpectra(fx, fy, make([]complex128, max(m/2, 1)))
	cc := make([]float64, 2*n-1)
	for k := range cc {
		t := k - (n - 1)
		if t < 0 {
			t += m
		}
		cc[k] = mathx.CorrelationAt(z, t)
	}
	nx := l2(x)
	ny := l2(y)
	denom := nx * ny
	if denom == 0 {
		for i := range cc {
			cc[i] = 0
		}
		return cc
	}
	for i := range cc {
		cc[i] /= denom
	}
	return cc
}

// SBD returns the shape-based distance between two equal-length series,
//
//	SBD(x,y) = 1 - max_w NCC_w(x,y),
//
// together with the shift at which the maximum is attained: delaying y
// by it lines y up with x (a negative shift means y lags x and
// is advanced; a positive one means y leads and is delayed). The distance lies
// in [0, 2]. Two zero-norm (constant) series are defined to have distance
// 0; a zero-norm series against a non-zero one has distance 1.
func SBD(x, y []float64) (dist float64, shift int) {
	n := len(x)
	if n != len(y) || n == 0 {
		panic(fmt.Sprintf("kshape: SBD needs equal non-empty lengths, got %d and %d", len(x), len(y)))
	}
	zx := l2(x) == 0
	zy := l2(y) == 0
	if zx && zy {
		return 0, 0
	}
	if zx || zy {
		return 1, 0
	}
	ncc := NCC(x, y)
	best, bestIdx := math.Inf(-1), 0
	for i, v := range ncc {
		if v > best {
			best, bestIdx = v, i
		}
	}
	return 1 - best, bestIdx - (n - 1)
}

// alignInto shifts y by the given shift (as returned by SBD) so it lines
// up with the reference series: dst[t] = y[t-shift], zero-padded where
// the shift runs past the ends. len(dst) == len(y), so callers can reuse
// one flat backing buffer.
func alignInto(dst, y []float64, shift int) []float64 {
	n := len(y)
	for t := 0; t < n; t++ {
		src := t - shift
		if src >= 0 && src < n {
			dst[t] = y[src]
		} else {
			dst[t] = 0
		}
	}
	return dst
}

// Scratch pools one goroutine's SBD and clustering state: the packed
// correlation behind every cached-spectrum distance, the
// centroid-extraction workspace, and the centroid memo of the sweep the
// goroutine is working on. The buffers' contents never
// reach a result; the memo holds results, but only of the prepared set it
// was made for — a run over another set starts a new one, so a Scratch
// may be reused across sets, and the memo is freed with the Scratch (the
// sweep's are local to it). The zero value is ready to use. A Scratch
// must not be shared between concurrent goroutines — fan-outs (the
// silhouette sweep, the pipeline executor) keep one per worker, indexed
// by parallel.ForEachWorker's worker id.
type Scratch struct {
	work []complex128

	// Centroid-extraction workspace (shape extraction + power iteration).
	eigen       mathx.EigenScratch
	rows        mathx.Rows
	centered    []float64
	alignedFlat []float64
	alignedRows [][]float64
	members     []int

	memo *centroidMemo

	// Work done through this scratch: cross-correlations, power-iteration
	// runs and the member rows they went over. Tests pin them.
	correlations, eigenRuns, eigenRows int
}

// memoFor returns the scratch's centroid memo for p, dropping the one of
// any other prepared set: its keys are series indices, which mean nothing
// across sets.
func (s *Scratch) memoFor(p *prepared) *centroidMemo {
	if s.memo == nil || s.memo.p != p {
		s.memo = &centroidMemo{p: p, byKey: map[string]*extraction{}}
	}
	return s.memo
}

func (s *Scratch) workBuf(h int) []complex128 {
	if cap(s.work) < h {
		s.work = make([]complex128, h)
	}
	return s.work[:h]
}

// aligned returns a rows-by-cols matrix of reused row slices backed by one
// flat buffer; contents are unspecified.
func (s *Scratch) aligned(rows, cols int) [][]float64 {
	if cap(s.alignedFlat) < rows*cols {
		s.alignedFlat = make([]float64, rows*cols)
	}
	flat := s.alignedFlat[:rows*cols]
	if cap(s.alignedRows) < rows {
		s.alignedRows = make([][]float64, rows)
	}
	out := s.alignedRows[:rows]
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols]
	}
	return out
}

// sbdProfile is a series' cached real-FFT spectrum used to batch pairwise
// SBD computations: the cross-correlation of any pair is one fused
// spectrum product and inverse real FFT. A profile depends only on its
// own series (spectra are never packed pairwise), so distances over
// cached profiles are bit-identical to SBD on the raw series. Profiles
// are immutable after creation and safe to share across goroutines.
type sbdProfile struct {
	spectrum []complex128
	// mags holds |spectrum[k]| for k = 0..padded/2, the bins strictly
	// between the ends scaled by sqrt(2): the spectrum of a real series
	// is conjugate-symmetric, so the dot product of two profiles' mags
	// is the sum of |C_k|·|X_k| over all padded bins.
	mags   []float64
	norm   float64
	n      int
	padded int
}

func newSBDProfile(x []float64) *sbdProfile {
	n := len(x)
	m := mathx.NextPow2(2*n - 1)
	buf := make([]complex128, m)
	mathx.RealFFT(buf, x, m)
	h := m / 2
	mags := make([]float64, h+1)
	for k := range mags {
		// Only lowerBound's pruning test reads mags, on z-normalized
		// series, with a margin far above the last-bit differences between
		// this and math.Hypot; the conversions keep the products unfused
		// on every architecture.
		re, im := real(buf[k]), imag(buf[k])
		mags[k] = math.Sqrt(float64(re*re) + float64(im*im))
		if k > 0 && k < h {
			mags[k] *= math.Sqrt2
		}
	}
	return &sbdProfile{spectrum: buf, mags: mags, norm: l2(x), n: n, padded: m}
}

// pruneMargin is how far lowerBound may exceed a distance computed
// through the FFT. In exact arithmetic it never does; the inverse
// transform's rounding error on NCC is a few log2(padded) ulps (~1e-15
// at the window lengths in use) and the bound's own dot product, summed
// in mathx.Dot's four lanes (each lane a quarter of the terms in order,
// then (l0+l1)+(l2+l3)), rounds within padded/8+2 ulps of its sum
// (~1e-14 worst case, a quarter of the sequential sum's padded/2), so 1e-9
// dominates both by four orders of magnitude while giving away nothing
// measurable in pruning power — distances between distinct shapes differ
// in the first few digits. The lane order moves the bound by ulps only,
// and TestKernelSweepCorrelationBudget's pinned counts show that no
// pruning decision of the captured sweep moved with it.
const pruneMargin = 1e-9

// lowerBound returns a value no greater than p.dist(q) + pruneMargin
// without transforming anything. Every cross-correlation coefficient is
// an inverse-DFT entry of the spectrum product, so
//
//	CC_w(p,q) = (1/m) Σ_k P_k·conj(Q_k)·e^(2πikw/m) <= (1/m) Σ_k |P_k|·|Q_k|
//
// for every shift w, hence SBD = 1 - max_w CC_w/(‖p‖‖q‖) is at least
// 1 - Σ_k |P_k||Q_k| / (m‖p‖‖q‖). The sum is mathx.Dot's lane-order sum
// on every host, so the bound's bits do not depend on the kernel. A
// zero-norm operand yields 0, which bounds nothing.
func (p *sbdProfile) lowerBound(q *sbdProfile) float64 {
	if p.norm == 0 || q.norm == 0 {
		return 0
	}
	return 1 - mathx.Dot(p.mags, q.mags[:len(p.mags)])/(float64(p.padded)*p.norm*q.norm)
}

// correlate returns the circular cross-correlation of the two profiled
// series (lengths must match, norms non-zero), packed as
// mathx.CorrelateSpectra leaves it in the scratch: shift w >= 0 at
// circular index w, shift w < 0 at index padded+w.
func (p *sbdProfile) correlate(q *sbdProfile, s *Scratch) []complex128 {
	if p.n != q.n {
		panic("kshape: profiled series length mismatch")
	}
	s.correlations++
	return mathx.CorrelateSpectra(p.spectrum, q.spectrum, s.workBuf(max(p.padded/2, 1)))
}

// degenerate handles SBD's zero-norm conventions.
func (p *sbdProfile) degenerate(q *sbdProfile) (dist float64, ok bool) {
	switch {
	case p.norm == 0 && q.norm == 0:
		return 0, true
	case p.norm == 0 || q.norm == 0:
		return 1, true
	}
	return 0, false
}

// sbd computes SBD and the aligning shift from one correlation, matching
// SBD(p, q) bit for bit: delaying q by the shift (alignInto) lines q up
// with p. SBD divides every coefficient by the norm product and keeps the
// first shift, from -(n-1) up, whose quotient is strictly the largest.
// Scaling by the packed result's power-of-two 1/h and dividing by a
// positive constant are both monotone under correct rounding, so a raw
// value no greater than the largest seen so far cannot have a strictly
// greater quotient: only a new largest raw value is scaled and divided —
// a handful per pair instead of 2n-1 — and the quotient comparison it
// then goes through is SBD's own, so two coefficients a few ulps apart
// that round to one quotient still resolve to the earlier shift. That is
// largestRaw's scalar scan; firstPeak reaches the same shift through the
// lane kernels whenever its threshold argument holds, and sbd falls back
// to the scan when it does not. With a warm scratch it allocates nothing.
func (p *sbdProfile) sbd(q *sbdProfile, s *Scratch) (float64, int) {
	if d, ok := p.degenerate(q); ok {
		return d, 0
	}
	z := p.correlate(q, s)
	denom := p.norm * q.norm
	best, at, ok := p.firstPeak(z, denom)
	if !ok {
		best = math.Inf(-1)
		keep := func(c float64, t int) {
			if quo := c / denom; quo > best {
				best, at = quo, t
			}
		}
		largest := largestRaw(z, p.padded-(p.n-1), p.padded, math.Inf(-1), keep)
		largestRaw(z, 0, p.n, largest, keep)
	}
	if at >= p.n {
		at -= p.padded
	}
	return 1 - best, at
}

// largest returns the largest raw value of the scanned parts of z, both
// shift ranges, through the lane kernel, and whether every part it read
// and every part beside them is finite: only then is every coefficient a
// number, so that the largest raw value is largestRaw's.
func (p *sbdProfile) largest(z []complex128) (float64, bool) {
	neg, negOK := mathx.LargestPart(z, p.padded-(p.n-1), p.padded)
	pos, posOK := mathx.LargestPart(z, 0, p.n)
	return max(neg, pos), negOK && posOK
}

// firstPeak finds sbd's shift without a scalar pass over z: the largest
// raw value R gives the largest quotient Q, and the shift is the first
// index, in scan order, whose quotient equals Q. Only indices whose raw
// value is at least T = R - |R|·2^-50 can: with s = 1/h and d = denom,
// two exact quotients that round to one normal Q lie within ulp(Q) <=
// 2^-52·|Q| of each other, so their raw values lie within
// 2^-52·|R|·(1 + 2^-52) < 2^-51·|R| when r·s and R·s are exact, and T,
// rounded, stays below R - 2^-51·|R|. That needs every part finite, |R·s|
// >= 2^-1000 (R·s exact; and a candidate whose r·s rounds, being under
// 2^-1022, has a quotient far from Q), and Q finite and normal; otherwise
// ok is false and sbd runs largestRaw. The candidates are the raw values
// within a few ulps of R, usually R's index alone.
func (p *sbdProfile) firstPeak(z []complex128, denom float64) (best float64, at int, ok bool) {
	r, ok := p.largest(z)
	if !ok {
		return 0, 0, false
	}
	scaled := r * (1 / float64(len(z)))
	q := scaled / denom
	if !(math.Abs(scaled) >= 0x1p-1000) || !(math.Abs(q) >= 0x1p-1022) || math.IsInf(q, 0) {
		return 0, 0, false
	}
	threshold := r - math.Abs(r)*0x1p-50
	for _, span := range [2][2]int{{p.padded - (p.n - 1), p.padded}, {0, p.n}} {
		from, to := span[0], span[1]
		for t := mathx.FirstPartAtLeast(z, from, to, threshold); t < to; t = mathx.FirstPartAtLeast(z, t+1, to, threshold) {
			if c := mathx.CorrelationAt(z, t) / denom; c == q {
				return c, t, true
			}
		}
	}
	// R's own index is a candidate with quotient Q, so this is not
	// reached.
	return 0, 0, false
}

// dist is sbd's distance, bit for bit, for callers with no use for the
// shift (the pairwise matrix): the largest quotient is the quotient of
// the largest coefficient, which is the largest raw value scaled by 1/h
// but for the sign of a zero, and 1 - x drops that. The lane kernel's
// largest part is that value whenever every scanned part and its partner
// is finite; otherwise largestRaw skips the NaN coefficients.
func (p *sbdProfile) dist(q *sbdProfile, s *Scratch) float64 {
	if d, ok := p.degenerate(q); ok {
		return d
	}
	z := p.correlate(q, s)
	largest, ok := p.largest(z)
	if !ok {
		largest = largestRaw(z, 0, p.n, math.Inf(-1), nil)
		largest = largestRaw(z, p.padded-(p.n-1), p.padded, largest, nil)
	}
	return 1 - largest*(1/float64(len(z)))/(p.norm*q.norm)
}

// largestRaw scans circular indices from..to-1 of a packed correlation z
// in order — index t is the real part of z[t/2] when t is even and the
// imaginary part when it is odd — and returns the largest raw value above
// largest whose coefficient mathx.CorrelationAt(z, t) is not NaN. keep,
// when not nil, sees each new largest value's coefficient and index.
func largestRaw(z []complex128, from, to int, largest float64, keep func(c float64, t int)) float64 {
	t := from
	if t&1 == 1 && t < to {
		if v := imag(z[t>>1]); v > largest {
			largest = raise(z, v, t, largest, keep)
		}
		t++
	}
	for _, v := range z[t>>1 : to>>1] {
		if real(v) > largest {
			largest = raise(z, real(v), t, largest, keep)
		}
		if imag(v) > largest {
			largest = raise(z, imag(v), t+1, largest, keep)
		}
		t += 2
	}
	if t < to {
		if v := real(z[t>>1]); v > largest {
			largest = raise(z, v, t, largest, keep)
		}
	}
	return largest
}

// raise returns the largest raw value once v, at index t, exceeded
// largest: v, unless the other part of z[t/2] is not finite and spreads a
// NaN into t's coefficient, which a scan of coefficients never keeps.
func raise(z []complex128, v float64, t int, largest float64, keep func(c float64, t int)) float64 {
	c := mathx.CorrelationAt(z, t)
	if math.IsNaN(c) {
		return largest
	}
	if keep != nil {
		keep(c, t)
	}
	return v
}

// PairwiseSBD computes the full symmetric SBD distance matrix for a set of
// equal-length series, caching per-series FFTs so each pair costs one
// spectrum product. It returns an error when lengths differ.
func PairwiseSBD(series [][]float64) ([][]float64, error) {
	n := len(series)
	if n == 0 {
		return nil, nil
	}
	want := len(series[0])
	profiles := make([]*sbdProfile, n)
	for i, s := range series {
		if len(s) != want {
			return nil, fmt.Errorf("kshape: series %d has length %d, want %d", i, len(s), want)
		}
		if want == 0 {
			return nil, fmt.Errorf("kshape: series %d is empty", i)
		}
		profiles[i] = newSBDProfile(s)
	}
	var s Scratch
	return pairwiseFromProfiles(context.Background(), profiles, &s)
}

// pairwiseFromProfiles fills the symmetric distance matrix from cached
// spectra — the shared core of PairwiseSBD and the sweep's batched path.
// It checks ctx before each row and returns its error once it is done.
func pairwiseFromProfiles(ctx context.Context, profiles []*sbdProfile, s *Scratch) ([][]float64, error) {
	n := len(profiles)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for j := i + 1; j < n; j++ {
			v := profiles[i].dist(profiles[j], s)
			d[i][j] = v
			d[j][i] = v
		}
	}
	return d, nil
}

func l2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
