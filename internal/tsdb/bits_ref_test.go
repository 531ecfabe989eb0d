package tsdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The bit-at-a-time writer, reader and chunk decoder the store shipped
// with before bits.go went word-at-a-time. They are the reference the
// new ones are compared against: same bytes out of the writer, same
// values, errors and positions out of the reader, same points (or the
// same refusal) out of the decoder for arbitrary input. CompressBlock
// itself did not change, so writer equality on arbitrary field sequences
// (FuzzBitIO) plus the parent's chunks in testdata (TestGoldenChunks)
// pin the encoder.

type refBitWriter struct {
	buf   []byte
	nBits int
}

func (w *refBitWriter) writeBit(bit bool) {
	if w.nBits == 0 || w.nBits == 8 {
		w.buf = append(w.buf, 0)
		w.nBits = 0
	}
	if bit {
		w.buf[len(w.buf)-1] |= 1 << (7 - w.nBits)
	}
	w.nBits++
}

func (w *refBitWriter) writeBits(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.writeBit(v>>uint(i)&1 == 1)
	}
}

type refBitReader struct {
	buf []byte
	pos int
}

func (r *refBitReader) readBit() (bool, error) {
	byteIdx := r.pos >> 3
	if byteIdx >= len(r.buf) {
		return false, ErrShortBuffer
	}
	bit := r.buf[byteIdx]>>(7-uint(r.pos&7))&1 == 1
	r.pos++
	return bit, nil
}

func (r *refBitReader) readBits(n int) (uint64, error) {
	var v uint64
	for i := 0; i < n; i++ {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v <<= 1
		if bit {
			v |= 1
		}
	}
	return v, nil
}

// refDecompress is DecompressBlock over refBitReader, with every header
// and window check of chunkIter.reset, readDoD and readXORValue.
func refDecompress(chunk []byte) ([]Point, error) {
	if len(chunk) == 0 {
		return nil, nil
	}
	r := &refBitReader{buf: chunk}
	count, err := r.readBits(32)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, errors.New("zero count")
	}
	if count > uint64(len(chunk))*8/2+1 {
		return nil, errors.New("implausible count")
	}
	t0, err := r.readBits(64)
	if err != nil {
		return nil, err
	}
	v0, err := r.readBits(64)
	if err != nil {
		return nil, err
	}
	out := []Point{{T: int64(t0), V: math.Float64frombits(v0)}}
	prevT, prevDelta, prevV := int64(t0), int64(0), v0
	lead, trail := -1, -1
	for i := uint64(1); i < count; i++ {
		// Timestamp: count the '1' prefix (at most four), then the field.
		prefix := 0
		for prefix < 4 {
			bit, err := r.readBit()
			if err != nil {
				return nil, err
			}
			if !bit {
				break
			}
			prefix++
		}
		var dod int64
		if prefix > 0 {
			width := []int{0, 7, 9, 12, 64}[prefix]
			bias := []int64{0, 63, 255, 2047, 0}[prefix]
			f, err := r.readBits(width)
			if err != nil {
				return nil, err
			}
			dod = int64(f) - bias
		}
		prevDelta += dod
		prevT += prevDelta

		// Value.
		changed, err := r.readBit()
		if err != nil {
			return nil, err
		}
		if changed {
			newWindow, err := r.readBit()
			if err != nil {
				return nil, err
			}
			if newWindow {
				l, err := r.readBits(5)
				if err != nil {
					return nil, err
				}
				m, err := r.readBits(6)
				if err != nil {
					return nil, err
				}
				if m == 0 {
					m = 64
				}
				if 64-int(l)-int(m) < 0 {
					return nil, errors.New("corrupt window")
				}
				lead, trail = int(l), 64-int(l)-int(m)
			} else if lead < 0 {
				return nil, errors.New("window reuse before any window")
			}
			mbits, err := r.readBits(64 - lead - trail)
			if err != nil {
				return nil, err
			}
			prevV ^= mbits << uint(trail)
		}
		out = append(out, Point{T: prevT, V: math.Float64frombits(prevV)})
	}
	return out, nil
}

// bitOp is one field of a differential bit-I/O script.
type bitOp struct {
	v     uint64
	width int  // 0..64
	bit   bool // use writeBit/readBit (width is then 1)
}

// bitOpsFromBytes decodes a fuzz input into a script: nine bytes per op,
// the first choosing the width (values 65..255 fold onto single-bit ops
// and the common small widths).
func bitOpsFromBytes(data []byte) []bitOp {
	var ops []bitOp
	for ; len(data) >= 9; data = data[9:] {
		op := bitOp{v: binary.LittleEndian.Uint64(data[1:9])}
		switch w := int(data[0]); {
		case w <= 64:
			op.width = w
		case w < 128:
			op.width, op.bit = 1, true
		default:
			op.width = w % 65
		}
		ops = append(ops, op)
	}
	return ops
}

// checkBitIO writes the script through both writers, then reads the
// bytes back through both readers — with the script's widths, then once
// more with the widths rotated so fields no longer line up with how they
// were written — and finally probes the buffer end: a field ending
// exactly there succeeds, one bit more fails, identically.
func checkBitIO(t *testing.T, ops []bitOp) {
	t.Helper()
	var w bitWriter
	var rw refBitWriter
	for _, op := range ops {
		if op.bit {
			w.writeBit(op.v&1 == 1)
			rw.writeBit(op.v&1 == 1)
		} else {
			w.writeBits(op.v, op.width)
			rw.writeBits(op.v, op.width)
		}
		if got, want := w.bytes(), rw.buf; !bytes.Equal(got, want) {
			t.Fatalf("after %d-bit field: writer bytes %x, reference %x", op.width, got, want)
		}
	}
	buf := rw.buf
	for rot := 0; rot < 2; rot++ {
		r, rr := bitReader{buf: buf}, refBitReader{buf: buf}
		for k := range ops {
			op := ops[(k+rot)%len(ops)]
			var got, want uint64
			var err, rerr error
			if op.bit {
				var b, rb bool
				b, err = r.readBit()
				rb, rerr = rr.readBit()
				if b {
					got = 1
				}
				if rb {
					want = 1
				}
			} else {
				got, err = r.readBits(op.width)
				want, rerr = rr.readBits(op.width)
			}
			if got != want || err != rerr || r.pos != rr.pos {
				t.Fatalf("rot %d op %d (%d bits): got (%#x, %v) at %d, reference (%#x, %v) at %d",
					rot, k, op.width, got, err, r.pos, want, rerr, rr.pos)
			}
			if rot == 0 && err == nil && !op.bit && op.width > 0 && op.width < 64 && got != op.v&(1<<uint(op.width)-1) {
				t.Fatalf("op %d: read %#x back, wrote %#x (%d bits)", k, got, op.v, op.width)
			}
		}
		// The buffer end, from wherever the script left the readers.
		left := len(buf)*8 - r.pos
		for _, n := range []int{left, left + 1} {
			if n > 64 {
				continue
			}
			pr, prr := r, rr
			got, err := pr.readBits(n)
			want, rerr := prr.readBits(n)
			if got != want || err != rerr || pr.pos != prr.pos {
				t.Fatalf("end probe %d bits with %d left: got (%#x, %v) at %d, reference (%#x, %v) at %d",
					n, left, got, err, pr.pos, want, rerr, prr.pos)
			}
			if (n > left) != (err == ErrShortBuffer) {
				t.Fatalf("end probe %d bits with %d left: err %v", n, left, err)
			}
		}
	}
}

func TestBitIODifferential(t *testing.T) {
	// 64-bit (and every other width of) fields at every bit offset.
	for off := 0; off < 8; off++ {
		for width := 0; width <= 64; width++ {
			ops := []bitOp{{v: 0x55, width: off}}
			for k := 0; k < 4; k++ {
				ops = append(ops, bitOp{v: 0xDEADBEEFCAFEF00D * uint64(k+1), width: width})
			}
			checkBitIO(t, ops)
		}
	}
	// Random scripts, mixing single bits and fields.
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		ops := make([]bitOp, rng.Intn(40))
		for i := range ops {
			ops[i] = bitOp{v: rng.Uint64(), width: rng.Intn(65)}
			if rng.Intn(4) == 0 {
				ops[i].width, ops[i].bit = 1, true
			}
		}
		checkBitIO(t, ops)
	}
	var w bitWriter
	for _, n := range []int{-1, 65} {
		if _, err := (&bitReader{buf: make([]byte, 16)}).readBits(n); err == nil {
			t.Errorf("readBits(%d) succeeded", n)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("writeBits(%d) did not panic", n)
				}
			}()
			w.writeBits(0, n)
		}()
	}
}

func FuzzBitIO(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{64, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 3))
	f.Add(append([]byte{3, 5, 0, 0, 0, 0, 0, 0, 0}, bytes.Repeat([]byte{64, 1, 2, 3, 4, 5, 6, 7, 8}, 2)...))
	f.Add([]byte{100, 1, 0, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9, 63, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 9*256 {
			return
		}
		checkBitIO(t, bitOpsFromBytes(data))
	})
}

// checkDecodeAgainstReference decodes chunk with the shipped decoder and
// the bit-at-a-time reference: same points bit for bit, or both refuse.
func checkDecodeAgainstReference(t *testing.T, chunk []byte) {
	t.Helper()
	got, err := DecompressBlock(chunk)
	want, rerr := refDecompress(chunk)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("decoder err %v, reference err %v (chunk %x)", err, rerr, chunk)
	}
	if errors.Is(err, ErrShortBuffer) != errors.Is(rerr, ErrShortBuffer) {
		t.Fatalf("decoder err %v, reference err %v: short-buffer class differs (chunk %x)", err, rerr, chunk)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(pointBits(got), pointBits(want)) {
		t.Fatalf("decoder and reference disagree on chunk %x", chunk)
	}
	// The corrupt-header bound: a chunk cannot claim more points than its
	// bits can hold, so neither can the decoded slice.
	if max := len(chunk)*4 + 1; len(got) > max || cap(got) > max {
		t.Fatalf("decoded %d points (cap %d) from %d bytes, bound %d", len(got), cap(got), len(chunk), max)
	}
}

func TestGorillaDecodeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range goldenChunkCases() {
		chunk, err := CompressBlock(c.pts)
		if err != nil {
			t.Fatal(err)
		}
		checkDecodeAgainstReference(t, chunk)
		// Every truncation, and a bit flip at every position of a short
		// chunk (a sample of positions of a long one): what a torn write
		// or bit-rot leaves in chunks.dat.
		for n := 0; n < len(chunk); n++ {
			checkDecodeAgainstReference(t, chunk[:n])
		}
		flips := len(chunk) * 8
		for k := 0; k < flips && k < 4096; k++ {
			bit := k
			if flips > 4096 {
				bit = rng.Intn(flips)
			}
			mut := append([]byte(nil), chunk...)
			mut[bit>>3] ^= 0x80 >> uint(bit&7)
			checkDecodeAgainstReference(t, mut)
		}
	}
	for iter := 0; iter < 2000; iter++ {
		junk := make([]byte, rng.Intn(96))
		rng.Read(junk)
		if len(junk) >= 4 && iter%2 == 0 {
			// A plausible count, so the body is reached.
			binary.BigEndian.PutUint32(junk, uint32(rng.Intn(len(junk)*4+2)))
		}
		checkDecodeAgainstReference(t, junk)
	}
}

func FuzzGorillaDecode(f *testing.F) {
	for _, c := range goldenChunkCases() {
		chunk, err := CompressBlock(c.pts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(chunk)
		f.Add(chunk[:len(chunk)/2])
	}
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, chunk []byte) {
		if len(chunk) > 1<<16 {
			return
		}
		checkDecodeAgainstReference(t, chunk)
	})
}
