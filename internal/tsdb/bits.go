package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortBuffer is returned when a reader runs past the end of its input.
var ErrShortBuffer = errors.New("tsdb: bit buffer exhausted")

// bitWriter packs bits most-significant-first into a byte slice. Pending
// bits wait left-aligned in acc and reach buf eight bytes at a time;
// bytes() adds the partial tail.
type bitWriter struct {
	buf  []byte
	acc  uint64 // the next nAcc bits of the stream, in the high bits
	nAcc uint   // 0..63
}

// writeBit appends a single bit.
func (w *bitWriter) writeBit(bit bool) {
	var v uint64
	if bit {
		v = 1
	}
	w.writeBits(v, 1)
}

// writeBits appends the low n bits of v, most significant first.
func (w *bitWriter) writeBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("tsdb: writeBits n=%d", n))
	}
	if n == 0 {
		return
	}
	un := uint(n)
	v &= ^uint64(0) >> (64 - un)
	free := 64 - w.nAcc // 1..64
	if un < free {
		w.acc |= v << (free - un)
		w.nAcc += un
		return
	}
	// The field fills the accumulator: flush it, keep the overhang.
	over := un - free // 0..63
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc|v>>over)
	w.acc, w.nAcc = v<<(64-over), over // a shift by 64 (no overhang) leaves 0
}

// bytes returns the encoded buffer (the final byte may be partially
// used, its unused low bits zero). The writer stays usable.
func (w *bitWriter) bytes() []byte {
	out := w.buf
	acc := w.acc
	for n := int(w.nAcc); n > 0; n -= 8 {
		out = append(out, byte(acc>>56))
		acc <<= 8
	}
	return out
}

// bitReader consumes bits most-significant-first from a byte slice.
type bitReader struct {
	buf []byte
	pos int // absolute bit position
}

// readBit consumes one bit.
func (r *bitReader) readBit() (bool, error) {
	byteIdx := r.pos >> 3
	if byteIdx >= len(r.buf) {
		return false, ErrShortBuffer
	}
	bit := r.buf[byteIdx]>>(7-uint(r.pos&7))&1 == 1
	r.pos++
	return bit, nil
}

// readBits consumes n bits and returns them right-aligned: one bounds
// check, one 8-byte load (plus the ninth byte when an unaligned field
// spills into it) and a shift. Only inside the buffer's last eight bytes
// does it gather byte by byte. A field that runs past the end consumes
// what is left and fails, as a bit-by-bit reader would.
func (r *bitReader) readBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("tsdb: readBits n=%d", n)
	}
	if n == 0 {
		return 0, nil
	}
	end := r.pos + n
	if end > len(r.buf)*8 {
		r.pos = len(r.buf) * 8
		return 0, ErrShortBuffer
	}
	i, off, un := r.pos>>3, uint(r.pos&7), uint(n)
	r.pos = end
	if i+8 <= len(r.buf) {
		v := binary.BigEndian.Uint64(r.buf[i:]) << off >> (64 - un)
		if spill := off + un; spill > 64 {
			v |= uint64(r.buf[i+8]) >> (72 - spill)
		}
		return v, nil
	}
	// Fewer than eight bytes remain from i on, so the gather below takes
	// at most 56 bits into v.
	var v uint64
	for _, b := range r.buf[i : (end+7)>>3] {
		v = v<<8 | uint64(b)
	}
	// Drop the bits after the field, then the bits before it.
	v >>= uint(-end) & 7
	return v & (^uint64(0) >> (64 - un)), nil
}
