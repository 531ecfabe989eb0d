package strdist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestJaroKnownValues(t *testing.T) {
	tests := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.944444},
		{"DIXON", "DICKSONX", 0.766667},
		{"CRATE", "TRACE", 0.733333},
		{"", "", 1},
		{"abc", "", 0},
		{"", "abc", 0},
		{"same", "same", 1},
		{"abc", "xyz", 0},
	}
	for _, tt := range tests {
		if got := Jaro(tt.a, tt.b); !almostEqual(got, tt.want, 1e-5) {
			t.Errorf("Jaro(%q,%q) = %.6f, want %.6f", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	tests := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.961111},
		{"DWAYNE", "DUANE", 0.840000},
		{"cpu_usage", "cpu_usage", 1},
	}
	for _, tt := range tests {
		if got := JaroWinkler(tt.a, tt.b); !almostEqual(got, tt.want, 1e-5) {
			t.Errorf("JaroWinkler(%q,%q) = %.6f, want %.6f", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestJaroPrefixBoostOrdering(t *testing.T) {
	// Metric-name intuition: a shared family prefix must score higher
	// with Jaro-Winkler than with plain Jaro.
	a, b := "cpu_usage_mean", "cpu_usage_p95"
	if JaroWinkler(a, b) <= Jaro(a, b) {
		t.Errorf("JaroWinkler(%q,%q) = %g not boosted above Jaro = %g", a, b, JaroWinkler(a, b), Jaro(a, b))
	}
}

func TestJaroProperties(t *testing.T) {
	letters := []byte("abcdefg_")
	randStr := func(rng *rand.Rand) string {
		n := rng.Intn(12)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = letters[rng.Intn(len(letters))]
		}
		return string(buf)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randStr(rng), randStr(rng)
		j := Jaro(a, b)
		jw := JaroWinkler(a, b)
		if j < 0 || j > 1 || jw < 0 || jw > 1 {
			return false
		}
		if !almostEqual(Jaro(a, b), Jaro(b, a), 1e-12) {
			return false // symmetry
		}
		if Jaro(a, a) != 1 {
			return false // identity
		}
		return jw >= j-1e-12 // Winkler never decreases the score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestJaroDistance(t *testing.T) {
	if got := 1 - Jaro("same", "same"); got != 0 {
		t.Errorf("Jaro distance of identical strings = %g, want 0", got)
	}
	if got := 1 - Jaro("abc", "xyz"); got != 1 {
		t.Errorf("Jaro distance of disjoint strings = %g, want 1", got)
	}
}
