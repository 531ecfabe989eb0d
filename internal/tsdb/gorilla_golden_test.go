package tsdb

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The on-disk chunk format is pinned by bytes, not by round-trip:
// testdata/golden_chunks.txt holds the hex of chunks the bit-at-a-time
// encoder produced at commit 0357cd6 (the last one before the
// word-at-a-time bit I/O) for the inputs goldenChunkCases generates. The
// encoder must reproduce every chunk and the decoder must read it back.
// The file is never regenerated from the current encoder: a mismatch
// means the format changed, and blocks written by older binaries no
// longer decode.

// goldenRNG is a fixed xorshift64* generator, so the fixture's inputs
// depend on nothing but this file.
type goldenRNG uint64

func (r *goldenRNG) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = goldenRNG(x)
	return x * 0x2545F4914F6CDD1D
}

// walk2dec is sievebench's gauge shape: a random walk rounded to two
// decimals, scraped every 15 s.
func walk2dec(seed uint64, n int) []Point {
	rng := goldenRNG(seed)
	v := math.Round(float64(rng.next()%100000)) / 100
	pts := make([]Point, n)
	for i := range pts {
		step := float64(int64(rng.next()%601)-300) / 100
		v = math.Round((v+step)*100) / 100
		pts[i] = Point{T: 1_699_999_200_000 + int64(i)*15_000, V: v}
	}
	return pts
}

// intCounter is sievebench's counter shape: an integer that grows by
// 0..63 per 15 s scrape.
func intCounter(seed uint64, n int) []Point {
	rng := goldenRNG(seed)
	var v float64
	pts := make([]Point, n)
	for i := range pts {
		v += float64(rng.next() % 64)
		pts[i] = Point{T: 1_699_999_200_000 + int64(i)*15_000, V: v}
	}
	return pts
}

type goldenChunkCase struct {
	name string
	pts  []Point
}

func goldenChunkCases() []goldenChunkCase {
	// Every delta-of-delta bucket, including the raw 64-bit '1111' escape
	// a late scrape produces, and equal timestamps.
	lateTS := []Point{
		{T: 1000, V: 1}, {T: 2000, V: 1}, {T: 3000, V: 2}, // dod 0
		{T: 4040, V: 2},      // dod +40: '10'
		{T: 5000, V: 2.5},    // dod -80: '110'
		{T: 6200, V: 2.5},    // dod +240: '110'
		{T: 9000, V: 3},      // dod +1600: '1110'
		{T: 9100, V: 3},      // dod -2700: '1111'
		{T: 9100, V: 4},      // equal timestamp, dod -100
		{T: 3_609_100, V: 4}, // an hour late: '1111'
		{T: 3_609_101, V: -4},
		{T: math.MaxInt64 - 1, V: 0}, // delta overflows int32 many times over
		{T: math.MaxInt64, V: 1e-300},
	}
	special := []Point{
		{T: -5, V: 0},
		{T: -4, V: math.Copysign(0, -1)},
		{T: -3, V: math.NaN()},
		{T: -2, V: math.Inf(1)},
		{T: -1, V: math.Inf(-1)},
		{T: 0, V: math.MaxFloat64},
		{T: 1, V: math.SmallestNonzeroFloat64},
		{T: 2, V: -math.MaxFloat64},
		{T: 3, V: math.Float64frombits(0x7ff8000000000001)}, // NaN with a payload
		{T: 4, V: 1},
		{T: 5, V: 1},
		{T: 6, V: math.Float64frombits(math.Float64bits(1) + 1)}, // one-bit XOR, 63 leading zeros capped to 31
		{T: 7, V: math.Float64frombits(^uint64(0) >> 1)},
	}
	return []goldenChunkCase{
		{"walk2dec/240", walk2dec(1, 240)},
		{"walk2dec/61", walk2dec(2, 61)},
		{"counter/240", intCounter(3, 240)},
		{"counter/61", intCounter(4, 61)},
		{"single", []Point{{T: 42, V: 4.2}}},
		{"late_ts", lateTS},
		{"special", special},
	}
}

// readGoldenChunks parses testdata/golden_chunks.txt: one "name hex"
// pair per line, '#' comments.
func readGoldenChunks(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open("testdata/golden_chunks.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hx, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden_chunks.txt: malformed line %q", line)
		}
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("golden_chunks.txt: %s: %v", name, err)
		}
		out[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// pointBits maps points to their exact bit patterns, so NaN payloads and
// the sign of zero take part in comparisons.
func pointBits(pts []Point) [][2]uint64 {
	out := make([][2]uint64, len(pts))
	for i, p := range pts {
		out[i] = [2]uint64{uint64(p.T), math.Float64bits(p.V)}
	}
	return out
}

func TestGoldenChunks(t *testing.T) {
	golden := readGoldenChunks(t)
	cases := goldenChunkCases()
	if len(golden) != len(cases) {
		t.Fatalf("fixture holds %d chunks, want %d", len(golden), len(cases))
	}
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Fatalf("%s: not in the fixture", c.name)
		}
		got, err := CompressBlock(c.pts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoder output differs from the parent's chunk\n got %x\nwant %x", c.name, got, want)
		}
		back, err := DecompressBlock(want)
		if err != nil {
			t.Fatalf("%s: decoding the parent's chunk: %v", c.name, err)
		}
		if !reflect.DeepEqual(pointBits(back), pointBits(c.pts)) {
			t.Errorf("%s: the parent's chunk decodes to different points", c.name)
		}
	}
}
