package jsonenc

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "plain", "comp-0001/metric_07", "with space", `quo"te`, `back\slash`,
		"<script>", "a&b", "a>b", "tab\there", "nl\n", "\x00\x1f", "\x7f",
		"café", "  ", "bad\xffutf8", "\xc3", "日本語", "\b\f",
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
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, v); string(got) != string(want) {
			t.Errorf("%v: got %s, want %s", v, got, want)
		}
	}
}
