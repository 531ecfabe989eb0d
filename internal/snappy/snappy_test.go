package snappy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestDecodeGoldenVectors pins the decoder against hand-assembled
// element streams, independent of our encoder's choices — a decoder that
// only understands its own encoder's output would pass round-trips and
// still reject real Prometheus bodies.
func TestDecodeGoldenVectors(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", []byte{0x00}, ""},
		// Literal "abc": preamble 3, tag (3-1)<<2|00 = 0x08.
		{"literal", []byte{0x03, 0x08, 'a', 'b', 'c'}, "abc"},
		// One-extra-byte literal length form for a 61-byte literal.
		{"literal-len1", append([]byte{61, 60 << 2, 60}, bytes.Repeat([]byte{'x'}, 61)...), strings.Repeat("x", 61)},
		// "abcabcabc": literal "abc" then copy1 offset 3 length 6
		// (overlapping run-length copy).
		{"overlap-copy1", []byte{0x09, 0x08, 'a', 'b', 'c', (6-4)<<2 | tagCopy1, 0x03}, "abcabcabc"},
		// Same stream with the copy in copy2 form.
		{"copy2", []byte{0x09, 0x08, 'a', 'b', 'c', (6-1)<<2 | tagCopy2, 0x03, 0x00}, "abcabcabc"},
		// And in copy4 form.
		{"copy4", []byte{0x09, 0x08, 'a', 'b', 'c', (6-1)<<2 | tagCopy4, 0x03, 0x00, 0x00, 0x00}, "abcabcabc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Decode(tc.in)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if string(got) != tc.want {
				t.Fatalf("Decode = %q, want %q", got, tc.want)
			}
		})
	}
}

// malformedFrames is the shared corpus of invalid inputs: every one must
// fail with an error, never panic or return partial plaintext.
func malformedFrames() map[string][]byte {
	return map[string][]byte{
		"empty-input":           {},
		"preamble-only-nonzero": {0x05},
		"truncated-varint":      {0x80, 0x80},
		"varint-overflow":       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"preamble-too-large":    binary.AppendUvarint(nil, 1<<40),
		"literal-past-input":    {0x05, 0x10, 'a'},
		"literal-past-output":   {0x01, 0x10, 'a', 'b', 'c', 'd', 'e'},
		"literal-len-truncated": {0x80, 0x01, 60 << 2},
		"literal-len-4-bytes":   {0x05, 63 << 2, 0xff, 0xff, 0xff, 0xff, 'a'},
		"copy4-offset-2^31":     {0x08, 0x08, 'a', 'b', 'c', 3<<2 | tagCopy4, 0x00, 0x00, 0x00, 0x80},
		"copy-before-start":     {0x04, 0x08, 'a', 'b', 'c', 0x01 | 1<<2, 0x09},
		"copy-zero-offset":      {0x06, 0x08, 'a', 'b', 'c', (6-1)<<2 | tagCopy2, 0x00, 0x00},
		"copy-past-output":      {0x04, 0x08, 'a', 'b', 'c', 63<<2 | tagCopy2, 0x03, 0x00},
		"copy1-truncated":       {0x08, 0x08, 'a', 'b', 'c', 0x01},
		"copy4-truncated":       {0x08, 0x08, 'a', 'b', 'c', tagCopy4, 0x03, 0x00},
		"output-short":          {0x09, 0x08, 'a', 'b', 'c'},
		"trailing-garbage":      {0x03, 0x08, 'a', 'b', 'c', 0xff},
	}
}

func TestDecodeMalformed(t *testing.T) {
	for name, in := range malformedFrames() {
		t.Run(name, func(t *testing.T) {
			if out, err := Decode(in); err == nil {
				t.Fatalf("Decode accepted malformed input, returned %q", out)
			}
		})
	}
}

// TestEncodeDecodeRoundTrip drives the encoder across compressible,
// incompressible, and boundary-sized inputs and requires exact recovery.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inputs := map[string][]byte{
		"empty":         {},
		"one-byte":      {'z'},
		"short":         []byte("abc"),
		"run":           bytes.Repeat([]byte{'r'}, 1000),
		"repeats":       bytes.Repeat([]byte("abcdefgh"), 500),
		"sixty-one":     bytes.Repeat([]byte{'q'}, 61),
		"block-exact":   bytes.Repeat([]byte("0123456789abcdef"), 1<<12), // exactly 64 KiB
		"block-plus":    bytes.Repeat([]byte("0123456789abcdef"), 1<<12+3),
		"three-blocks":  bytes.Repeat([]byte("remote write on-ramp "), 10000),
		"text":          []byte(strings.Repeat("web,metric=cpu value=0.5 500\n", 2000)),
		"long-literal":  make([]byte, 70000), // filled below: no 4-byte repeats
		"short-literal": {1, 2, 3},
	}
	lit := inputs["long-literal"]
	for i := range lit {
		lit[i] = byte(rng.Intn(256))
	}
	for name, in := range inputs {
		t.Run(name, func(t *testing.T) {
			enc := Encode(in)
			got, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode(Encode(...)): %v", err)
			}
			if !bytes.Equal(got, in) {
				t.Fatalf("round trip mismatch: %d bytes in, %d out", len(in), len(got))
			}
		})
	}
}

// TestEncodeCompresses sanity-checks that the encoder actually finds
// matches: a highly repetitive input must shrink substantially.
func TestEncodeCompresses(t *testing.T) {
	in := bytes.Repeat([]byte("sieve remote write "), 4096)
	enc := Encode(in)
	if len(enc) > len(in)/10 {
		t.Fatalf("repetitive input compressed %d -> %d, expected at least 10x", len(in), len(enc))
	}
}

// TestDecodedLen pins the preamble fast path the server's size limit
// rides on.
func TestDecodedLen(t *testing.T) {
	enc := Encode(bytes.Repeat([]byte{'a'}, 12345))
	n, _, err := DecodedLen(enc)
	if err != nil || n != 12345 {
		t.Fatalf("DecodedLen = %d, %v; want 12345", n, err)
	}
	if _, _, err := DecodedLen(nil); err == nil {
		t.Fatal("DecodedLen accepted empty input")
	}
}

// TestDecodedLenBeyondInt holds DecodedLen to ErrTooLarge for every
// preamble past the format's 32-bit limit or the platform's int, so a
// crafted preamble can never become a negative length (on 32-bit
// platforms, from 2^31 up). Under GOARCH=386 the middle rows are refused.
func TestDecodedLenBeyondInt(t *testing.T) {
	for _, v := range []uint64{1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32, math.MaxUint64} {
		src := binary.AppendUvarint(nil, v)
		n, _, err := DecodedLen(src)
		if v <= maxDecodedLen && v <= math.MaxInt {
			if err != nil || uint64(n) != v {
				t.Errorf("DecodedLen(%d) = %d, %v; want %d", v, n, err, v)
			}
			continue
		}
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("DecodedLen(%d) = %d, %v; want ErrTooLarge", v, n, err)
		}
		if _, err := Decode(src); !errors.Is(err, ErrTooLarge) {
			t.Errorf("Decode(preamble %d) = %v; want ErrTooLarge", v, err)
		}
	}
}

// FuzzSnappyDecode fuzzes both directions: data as plaintext must
// round-trip exactly through Encode/Decode, and data as a compressed
// frame must either decode (and then re-round-trip) or fail cleanly —
// never panic, never over-allocate past the validated preamble.
func FuzzSnappyDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abcabcabcabc"))
	f.Add(Encode(bytes.Repeat([]byte("sieve"), 100)))
	for _, in := range malformedFrames() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		enc := Encode(data)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(...)): %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
		// data as a frame: bound the preamble like the server does, so
		// a fuzzed 4 GiB length claim doesn't allocate 4 GiB.
		if n, _, err := DecodedLen(data); err != nil || n > 1<<22 {
			return
		}
		plain, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Decode(Encode(plain))
		if err != nil || !bytes.Equal(again, plain) {
			t.Fatalf("re-round-trip of decoded frame failed: %v", err)
		}
	})
}

// TestAppendDecodeReusesBuffer pins the pooled decode path: with a
// buffer big enough from a previous request, AppendDecode allocates
// nothing, and the output matches Decode byte for byte.
func TestAppendDecodeReusesBuffer(t *testing.T) {
	plain := bytes.Repeat([]byte("sieve snappy reuse pin, "), 512)
	src := Encode(plain)
	fresh, err := Decode(src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, plain) {
		t.Fatal("Decode roundtrip mismatch")
	}
	buf := make([]byte, len(plain))
	allocs := testing.AllocsPerRun(20, func() {
		out, err := AppendDecode(buf, src)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if allocs != 0 {
		t.Errorf("AppendDecode with sufficient capacity: %.1f allocs/run, want 0", allocs)
	}
	if !bytes.Equal(buf, plain) {
		t.Fatal("AppendDecode output differs from plaintext")
	}
	// A too-small buffer grows instead of corrupting.
	out, err := AppendDecode(make([]byte, 3), src)
	if err != nil || !bytes.Equal(out, plain) {
		t.Fatalf("AppendDecode growth path: err=%v, match=%v", err, bytes.Equal(out, plain))
	}
}
