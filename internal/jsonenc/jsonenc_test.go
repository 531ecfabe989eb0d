package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "plain", "comp-0001/metric_07", "with space", `quo"te`, `back\slash`,
		"<script>", "a&b", "a>b", "tab\there", "nl\n", "\x00\x1f", "\x7f",
		"café", "\u2028\u2029", "bad\xffutf8", "\xc3", "日本語", "\b\f",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("%q: got %s, want x%s", s, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { AppendString(make([]byte, 0, 64)[:0], "comp-0001") }); n > 1 {
		t.Errorf("plain string: %v allocs, want the buffer's one", n)
	}
}

// checkFloat holds AppendFloat(v) to encoding/json byte for byte.
func checkFloat(t testing.TB, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendFloat(nil, v); !bytes.Equal(got, want) {
		t.Errorf("%v (%#x): got %s, want %s", v, math.Float64bits(v), got, want)
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 100, 1e20, 1e21, 1.5e21, 1e22, 1e100, 1e-6, 9.99e-7, 1e-7,
		1e-10, 5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		123456789012345678, 9007199254740993, 1 << 62, 0.30000000000000004, 12.34, 1e-5,
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		cases = append(cases, v, math.Round(v*100)/100, float64(rng.Int63n(1<<40)))
	}
	for _, v := range cases {
		checkFloat(t, v)
	}
}

// TestAppendFloatMaxBytes holds AppendFloat to MaxFloatBytes on the
// longest encodings each format can produce, and on random doubles.
func TestAppendFloatMaxBytes(t *testing.T) {
	cases := []float64{
		math.Copysign(0, -1), -0.0000012345678901234567, -2.2250738585072014e-308,
		math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e21, 1e-6,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			cases = append(cases, v, 1e-6+rng.Float64()*9e-6)
		}
	}
	longest := 0
	for _, v := range cases {
		for _, v := range []float64{v, -v} {
			out := AppendFloat(nil, v)
			if len(out) > MaxFloatBytes {
				t.Errorf("AppendFloat(%v) = %q: %d bytes, more than %d", v, out, len(out), MaxFloatBytes)
			}
			longest = max(longest, len(out))
		}
	}
	if longest != MaxFloatBytes {
		t.Errorf("longest encoding is %d bytes, MaxFloatBytes is %d", longest, MaxFloatBytes)
	}
}

// TestAppendFloatShortDecimals covers the short-decimal fast path densely:
// the random doubles above almost never land in it, so every hit, every
// near miss and both edges of its range are enumerated here.
func TestAppendFloatShortDecimals(t *testing.T) {
	var cases []float64
	withNeighbours := func(v float64) {
		cases = append(cases, v, -v,
			math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)),
			-math.Nextafter(v, math.Inf(1)), -math.Nextafter(v, math.Inf(-1)))
	}
	rng := rand.New(rand.NewSource(3))
	pow10 := []float64{1, 10, 100, 1e3, 1e4, 1e5}
	// n/10^k for k ≤ 4: every small n, then n spread over (and past) the
	// fast path's range. k = 5 adds the x.xxxx5 halves and other
	// five-digit near misses.
	for k, p := range pow10 {
		for n := 0; n < 3000; n++ {
			withNeighbours(float64(n) / p)
		}
		for i := 0; i < 3000; i++ {
			withNeighbours(float64(rng.Int63n(1<<45)) / p)
			if k == 5 {
				withNeighbours(float64(rng.Int63n(1<<40)*10+5) / p)
			}
		}
	}
	// Edges: the classic non-short sum, the low bound and its
	// predecessor, negative zero, and the high bound |v|·1e4 = 2^43.
	top := float64(1<<43) / 1e4
	cases = append(cases,
		0.1+0.2, 1e-4, math.Nextafter(1e-4, 0), math.Copysign(0, -1), 0.00015, 0.0001234,
		879609302.2207, 879609302.2208, 879609302.2209, 879609302.221, 879609303, 879609302,
	)
	withNeighbours(top)
	for i := 1; i < 64; i++ {
		withNeighbours(top + float64(i)*1e-4)
		withNeighbours(top - float64(i)*1e-4)
	}
	// The dashboard generator's values: cent walks, counters that drift
	// off the cent grid as integer steps accumulate, and the 4-point
	// averages the decode shape serves.
	for s := 0; s < 64; s++ {
		walk := math.Round(rng.Float64()*1000*100) / 100
		counter := walk
		for i := 0; i < 500; i++ {
			walk = math.Round((walk+rng.NormFloat64()*3)*100) / 100
			counter += float64(rng.Intn(64))
			cases = append(cases, walk, -walk, counter, counter/4, (walk+counter)/4)
		}
	}
	for _, v := range cases {
		checkFloat(t, v)
	}
}

// FuzzAppendFloat holds AppendFloat to encoding/json byte for byte on
// arbitrary doubles and, so that every input also exercises the fast
// path, on the four-decimal value nearest each and its ulp neighbours.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, 1, -1, 0.1, 12.34, 1e-4, 879609302.2208, 0.30000000000000004, 1e21, 5e-324} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		short := math.Round(v*1e4) / 1e4
		for _, x := range []float64{v, short, math.Nextafter(short, math.Inf(1)), math.Nextafter(short, math.Inf(-1))} {
			checkFloat(t, x)
		}
	})
}

// appendFloatStrconv is AppendFloat without the short-decimal fast
// path: the cost every value paid before it.
func appendFloatStrconv(out []byte, v float64) []byte {
	abs := math.Abs(v)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		out = strconv.AppendFloat(out, v, 'e', -1, 64)
		if n := len(out); n >= 4 && out[n-4] == 'e' && (out[n-3] == '-' || out[n-3] == '+') && out[n-2] == '0' {
			out[n-2] = out[n-1]
			out = out[:n-1]
		}
		return out
	}
	return strconv.AppendFloat(out, v, 'f', -1, 64)
}

// benchSink keeps the benchmarked output observable.
var benchSink []byte

// BenchmarkAppendFloat times the fast path against plain strconv on two
// mixes the dashboard serves: a cent random walk (all hits) and counters
// that drift off the cent grid. ns/op is per value. The mostly-miss mix,
// where the fast path's rejection is pure overhead, is an analysis
// artifact's numbers: core's BenchmarkAppendFloatArtifact.
func BenchmarkAppendFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var cents, counters []float64
	walk, counter := 512.37, 804.11
	for i := 0; i < 4096; i++ {
		walk = math.Round((walk+rng.NormFloat64()*3)*100) / 100
		counter += float64(rng.Intn(64))
		cents, counters = append(cents, walk), append(counters, counter)
	}
	for _, mix := range []struct {
		name string
		vals []float64
	}{{"cents", cents}, {"counters", counters}} {
		hits := 0
		for _, v := range mix.vals {
			if abs := math.Abs(v); abs >= 1e-4 && abs*1e4 < 1<<43 && math.Round(abs*1e4)/1e4 == abs {
				hits++
			}
		}
		for _, enc := range []struct {
			name string
			fn   func([]byte, float64) []byte
		}{{"fast", AppendFloat}, {"strconv", appendFloatStrconv}} {
			b.Run(mix.name+"/"+enc.name, func(b *testing.B) {
				buf := make([]byte, 0, 64)
				for i, j := 0, 0; i < b.N; i, j = i+1, j+1 {
					if j == len(mix.vals) {
						j = 0
					}
					buf = enc.fn(buf[:0], mix.vals[j])
				}
				benchSink = buf
				b.ReportMetric(float64(hits)/float64(len(mix.vals)), "hit_share")
			})
		}
	}
}
