package tsdb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompressRoundTripRegularGrid(t *testing.T) {
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Point{T: int64(i) * 500, V: 20 + 5*math.Sin(float64(i)/10)}
	}
	block, err := CompressBlock(pts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecompressBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("decoded %d points, want %d", len(got), len(pts))
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Fatalf("point %d = %+v, want %+v", i, got[i], pts[i])
		}
	}
}

func TestCompressRatioOnRegularData(t *testing.T) {
	// A regular grid with slowly-varying values must compress well below
	// the raw 16 bytes/point.
	pts := make([]Point, 1000)
	v := 100.0
	for i := range pts {
		pts[i] = Point{T: int64(i) * 500, V: v}
		if i%17 == 0 {
			v += 1
		}
	}
	block, err := CompressBlock(pts)
	if err != nil {
		t.Fatal(err)
	}
	perPoint := float64(len(block)) / float64(len(pts))
	if perPoint > 4 {
		t.Errorf("compressed size = %.2f bytes/point, want < 4", perPoint)
	}
}

func TestCompressRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		pts := make([]Point, n)
		tcur := rng.Int63n(1 << 40)
		for i := range pts {
			tcur += rng.Int63n(10000)
			pts[i] = Point{T: tcur, V: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)))}
		}
		block, err := CompressBlock(pts)
		if err != nil {
			return false
		}
		got, err := DecompressBlock(block)
		if err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i := range pts {
			if got[i].T != pts[i].T {
				return false
			}
			// NaN-safe exact bit comparison.
			if math.Float64bits(got[i].V) != math.Float64bits(pts[i].V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompressSpecialValues(t *testing.T) {
	pts := []Point{
		{T: 0, V: 0},
		{T: 500, V: math.Inf(1)},
		{T: 1000, V: math.Inf(-1)},
		{T: 1500, V: math.NaN()},
		{T: 2000, V: -0.0},
		{T: 2500, V: math.MaxFloat64},
		{T: 3000, V: math.SmallestNonzeroFloat64},
	}
	block, err := CompressBlock(pts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecompressBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if math.Float64bits(got[i].V) != math.Float64bits(pts[i].V) {
			t.Errorf("point %d bits mismatch", i)
		}
	}
}

func TestCompressRejectsUnorderedTimestamps(t *testing.T) {
	if _, err := CompressBlock([]Point{{T: 10}, {T: 5}}); err == nil {
		t.Fatal("expected error for unordered timestamps")
	}
}

func TestCompressEmpty(t *testing.T) {
	block, err := CompressBlock(nil)
	if err != nil || block != nil {
		t.Fatalf("empty compress = %v, %v", block, err)
	}
	pts, err := DecompressBlock(nil)
	if err != nil || pts != nil {
		t.Fatalf("empty decompress = %v, %v", pts, err)
	}
}

func TestDecompressCorruptBlock(t *testing.T) {
	pts := []Point{{T: 0, V: 1}, {T: 500, V: 2}, {T: 1000, V: 3}}
	block, err := CompressBlock(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation must error, not panic or fabricate points.
	if _, err := DecompressBlock(block[:len(block)-2]); err == nil {
		t.Error("expected error for truncated block")
	}
	if _, err := DecompressBlock(block[:3]); err == nil {
		t.Error("expected error for severely truncated block")
	}
}

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := &bitWriter{}
	w.writeBit(true)
	w.writeBits(0b1011, 4)
	w.writeBits(0xDEADBEEF, 32)
	w.writeBit(false)
	w.writeBits(0x3F, 6)

	r := &bitReader{buf: w.bytes()}
	if b, _ := r.readBit(); !b {
		t.Fatal("first bit lost")
	}
	if v, _ := r.readBits(4); v != 0b1011 {
		t.Fatalf("4-bit field = %b", v)
	}
	if v, _ := r.readBits(32); v != 0xDEADBEEF {
		t.Fatalf("32-bit field = %x", v)
	}
	if b, _ := r.readBit(); b {
		t.Fatal("false bit lost")
	}
	if v, _ := r.readBits(6); v != 0x3F {
		t.Fatalf("6-bit field = %x", v)
	}
	if _, err := r.readBits(64); err == nil {
		t.Error("expected exhaustion error")
	}
}

func BenchmarkCompressBlock(b *testing.B) {
	pts := make([]Point, 512)
	for i := range pts {
		pts[i] = Point{T: int64(i) * 500, V: 20 + 5*math.Sin(float64(i)/10)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CompressBlock(pts); err != nil {
			b.Fatal(err)
		}
	}
}
