package granger

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/sieve-microservices/sieve/internal/stats"
	"github.com/sieve-microservices/sieve/internal/timeseries"
)

// referenceDirection is DirectionWith as it stood before preparation:
// every pair runs both stationarity checks and, per direction and lag,
// both the restricted and the unrestricted regression. The prepared path
// must reproduce it bit for bit.
func referenceDirection(x, y []float64, opts Options, s *Scratch) (Causality, *TestResult, *TestResult, error) {
	if len(x) != len(y) {
		return 0, nil, nil, fmt.Errorf("granger: length mismatch %d vs %d", len(x), len(y))
	}
	maxLag := max(opts.MaxLag, 1)
	if timeseries.IsConstant(x) || timeseries.IsConstant(y) {
		return None, &TestResult{PValue: 1, Lag: maxLag}, &TestResult{PValue: 1, Lag: maxLag}, nil
	}

	x, dx := stats.EnsureStationaryWith(x, adfLags, &s.stats)
	y, dy := stats.EnsureStationaryWith(y, adfLags, &s.stats)
	switch {
	case dx && !dy:
		y = y[1:]
	case dy && !dx:
		x = x[1:]
	}
	xy, err := referenceDirected(x, y, maxLag, dx, dy, s)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("granger: x->y: %w", err)
	}
	yx, err := referenceDirected(y, x, maxLag, dy, dx, s)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("granger: y->x: %w", err)
	}
	switch {
	case xy.Significant && yx.Significant:
		return Bidirectional, xy, yx, nil
	case xy.Significant:
		return XCausesY, xy, yx, nil
	case yx.Significant:
		return YCausesX, xy, yx, nil
	default:
		return None, xy, yx, nil
	}
}

func referenceDirected(x, y []float64, maxLag int, dx, dy bool, s *Scratch) (*TestResult, error) {
	res := &TestResult{PValue: 1, Lag: maxLag, DifferencedX: dx, DifferencedY: dy}
	if timeseries.IsConstant(x) || timeseries.IsConstant(y) {
		return res, nil
	}
	maxOwn := max(ownLags, maxLag)
	minLen := 2*maxOwn + maxLag + 8
	if len(y) < minLen {
		return nil, fmt.Errorf("%w: have %d samples, need >= %d", ErrSeriesTooShort, len(y), minLen)
	}
	for lag := 1; lag <= maxLag; lag++ {
		own := max(ownLags, lag)
		resp := y[own:]
		_, rssR, err := stats.FitOLSWith(resp, lagDesign(&s.restricted, x, y, 0, own), &s.stats)
		if err != nil {
			continue
		}
		_, rssU, err := stats.FitOLSWith(resp, lagDesign(&s.unrestrict, x, y, lag, own), &s.stats)
		if err != nil {
			continue
		}
		ft, err := stats.FTestNested(rssR, rssU, 1+own, 1+own+lag, len(resp))
		if err != nil {
			continue
		}
		if res.PValue == 1 && res.F == 0 || ft.PValue < res.PValue {
			res.F, res.PValue, res.Lag = ft.F, ft.PValue, lag
		}
	}
	res.Significant = res.PValue < Alpha
	return res, nil
}

// Series kinds the prepared-path fuzz target draws from.
const (
	kindNoise    = iota // stationary white noise
	kindAR              // AR(0.5), stationary
	kindWalk            // random walk: the pre-check differences it
	kindConstant        // no test can involve it
	kindStep            // a jump after the first sample, then flat: the series minus its first sample is constant
	kindDriven          // the other series' past plus noise; as x, which has none, all zeros
	kindBytes           // the fuzzer's bytes as raw values
	kindCount
)

// fuzzSeries builds a series of length n of the given kind.
func fuzzSeries(kind, n int, rng *rand.Rand, cause []float64, data []byte) []float64 {
	out := make([]float64, n)
	switch kind {
	case kindNoise:
		for i := range out {
			out[i] = rng.NormFloat64()
		}
	case kindAR, kindWalk:
		phi := 0.5
		if kind == kindWalk {
			phi = 1
		}
		for i := 1; i < n; i++ {
			out[i] = phi*out[i-1] + rng.NormFloat64()
		}
	case kindConstant:
		for i := range out {
			out[i] = 4.5
		}
	case kindStep:
		for i := 1; i < n; i++ {
			out[i] = 2
		}
	case kindDriven:
		for i := 1; i < n && cause != nil; i++ {
			out[i] = 0.8*cause[i-1] + 0.3*rng.NormFloat64()
		}
	case kindBytes:
		for i := range out {
			if len(data) >= 2 {
				out[i] = float64(int16(binary.LittleEndian.Uint16(data)))
				data = data[2:]
			}
		}
	}
	return out
}

// outcome is everything one Direction call returns.
type outcome struct {
	dir    Causality
	xy, yx *TestResult
	err    error
}

func outcomeOf(dir Causality, xy, yx *TestResult, err error) outcome {
	return outcome{dir, xy, yx, err}
}

// requireSameOutcome fails unless two Direction outcomes agree bit for
// bit: class, both results' statistics and flags, and the error text.
func requireSameOutcome(t *testing.T, what string, want, got outcome) {
	t.Helper()
	if (want.err == nil) != (got.err == nil) || want.err != nil && want.err.Error() != got.err.Error() {
		t.Fatalf("%s: error %v, reference %v", what, got.err, want.err)
	}
	if want.err != nil {
		return
	}
	if got.dir != want.dir {
		t.Fatalf("%s: direction %v, reference %v", what, got.dir, want.dir)
	}
	for _, r := range [][2]*TestResult{{want.xy, got.xy}, {want.yx, got.yx}} {
		w, g := r[0], r[1]
		if math.Float64bits(g.F) != math.Float64bits(w.F) || math.Float64bits(g.PValue) != math.Float64bits(w.PValue) ||
			g.Lag != w.Lag || g.Significant != w.Significant || g.DifferencedX != w.DifferencedX || g.DifferencedY != w.DifferencedY {
			t.Fatalf("%s: result %+v, reference %+v", what, *g, *w)
		}
	}
}

// FuzzGrangerPrepared holds the prepared path — Prepare once per series,
// then DirectionPrepared, and DirectionWith, which wraps the two — to
// the per-pair reference, bit for bit, on series of
// every kind the pre-check treats differently: constants, each side
// differenced alone, a series that is constant once its first sample is
// dropped, pairs too short to test, lags above ownLags and mismatched
// lengths.
func FuzzGrangerPrepared(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(1), uint8(kindConstant), uint8(kindNoise), false, []byte{})
	f.Add(int64(2), uint16(200), uint8(1), uint8(kindWalk), uint8(kindAR), false, []byte{})
	f.Add(int64(3), uint16(200), uint8(2), uint8(kindAR), uint8(kindWalk), false, []byte{})
	f.Add(int64(4), uint16(10), uint8(1), uint8(kindNoise), uint8(kindAR), false, []byte{})
	f.Add(int64(5), uint16(150), uint8(3), uint8(kindNoise), uint8(kindDriven), false, []byte{})
	f.Add(int64(6), uint16(150), uint8(5), uint8(kindWalk), uint8(kindDriven), false, []byte{})
	f.Add(int64(7), uint16(120), uint8(2), uint8(kindStep), uint8(kindWalk), false, []byte{})
	f.Add(int64(8), uint16(120), uint8(1), uint8(kindWalk), uint8(kindWalk), true, []byte{})
	f.Add(int64(9), uint16(40), uint8(4), uint8(kindBytes), uint8(kindAR), false, []byte{1, 0, 200, 255, 3, 0, 3, 0, 7, 1})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, maxLag uint8, kx, ky uint8, shortY bool, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		size := int(n % 400)
		x := fuzzSeries(int(kx%kindCount), size, rng, nil, data)
		y := fuzzSeries(int(ky%kindCount), size, rng, x, data)
		if shortY && size > 0 {
			y = y[1:]
		}
		opts := Options{MaxLag: int(maxLag % 6)}
		what := fmt.Sprintf("seed %d, n %d, MaxLag %d, kinds %d/%d, shortY %v", seed, size, opts.MaxLag, kx%kindCount, ky%kindCount, shortY)

		want := outcomeOf(referenceDirection(x, y, opts, new(Scratch)))
		requireSameOutcome(t, what+", DirectionWith", want, outcomeOf(DirectionWith(x, y, opts, new(Scratch))))
		var s Scratch
		requireSameOutcome(t, what+", DirectionPrepared", want, outcomeOf(DirectionPrepared(Prepare(x, opts, &s), Prepare(y, opts, &s), &s)))
	})
}

// TestDirectionPreparedMismatchedLags: series prepared for different lag
// orders are refused, not tested on one side's lags.
func TestDirectionPreparedMismatchedLags(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := causalPair(rng, 200, 1, 0.9, 0.3)
	var s Scratch
	if _, _, _, err := DirectionPrepared(Prepare(x, Options{MaxLag: 1}, &s), Prepare(y, Options{MaxLag: 2}, &s), &s); err == nil {
		t.Fatal("series prepared for MaxLag 1 and 2 were tested")
	}
}

// TestDirectionDelayMovesLag is the delay relation: y driven by x's value
// L ticks back, then the same y delayed by one more tick. The delay keeps
// x -> y significant, and the chosen lag moves from L to L+1 when MaxLag
// allows; when it does not, the test stays at MaxLag, where the
// autocorrelated cause still carries the signal. The class is kept too,
// except where the reverse test, a null test at Alpha, rejects by chance
// on one side: that may flip it in about Alpha of the cells, so at most a
// tenth may differ.
func TestDirectionDelayMovesLag(t *testing.T) {
	const n = 400
	cells, flipped := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		for _, lag := range []int{1, 2, 3} {
			rng := rand.New(rand.NewSource(seed))
			x := make([]float64, n)
			for i := 1; i < n; i++ {
				x[i] = 0.6*x[i-1] + rng.NormFloat64()
			}
			y := make([]float64, n)
			for i := lag; i < n; i++ {
				y[i] = 0.9*x[i-lag] + 0.3*rng.NormFloat64()
			}
			delayed := append([]float64{0}, y[:n-1]...)
			for maxLag := lag; maxLag <= lag+2; maxLag++ {
				what := fmt.Sprintf("seed %d, lag %d, MaxLag %d", seed, lag, maxLag)
				opts := Options{MaxLag: maxLag}
				dir, xy, yx, err := Direction(x, y, opts)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				ddir, dxy, dyx, err := Direction(x, delayed, opts)
				if err != nil {
					t.Fatalf("%s, delayed: %v", what, err)
				}
				if !xy.Significant || !dxy.Significant {
					t.Errorf("%s: x -> y p-value %g, delayed %g, want both significant", what, xy.PValue, dxy.PValue)
				}
				if xy.Lag != lag {
					t.Errorf("%s: lag %d, want the planted %d", what, xy.Lag, lag)
				}
				if want := min(lag+1, maxLag); dxy.Lag != want {
					t.Errorf("%s: delayed lag %d, want %d", what, dxy.Lag, want)
				}
				cells++
				if ddir != dir {
					flipped++
					t.Logf("%s: class %v, delayed %v (reverse p-values %g and %g)", what, dir, ddir, yx.PValue, dyx.PValue)
				}
			}
		}
	}
	if 10*flipped > cells {
		t.Errorf("the delay changed the class in %d of %d cells, want at most a tenth", flipped, cells)
	}
}
