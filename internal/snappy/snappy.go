// Package snappy implements the snappy block format — the compression
// Prometheus remote write wraps every request body in — with zero
// dependencies. Only the serving path needs Decode; Encode exists so the
// HTTP client and the tests can produce real remote-write bodies (and so
// the fuzzer can round-trip arbitrary plaintext), and is a conventional
// greedy hash-table matcher whose output any spec-conforming decoder
// accepts. This is the raw block format (varint preamble + element
// stream), not the framing format (chunked stream with CRCs) — remote
// write uses the former.
//
// Format (little-endian throughout):
//
//	preamble: uvarint decompressed length
//	elements: tag byte, low 2 bits select the kind
//	  00 literal: length-1 in tag>>2; 60..63 mean 1..4 extra length bytes
//	  01 copy1:   length-4 in (tag>>2)&7, offset = (tag>>5)<<8 | next byte
//	  10 copy2:   length-1 in tag>>2, offset = 2 bytes
//	  11 copy4:   length-1 in tag>>2, offset = 4 bytes
//
// Copies may overlap their own output (offset < length) — that is the
// run-length encoding case and must be copied byte-by-byte forward.
package snappy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

var (
	// ErrCorrupt reports an undecodable element stream.
	ErrCorrupt = errors.New("snappy: corrupt input")
	// ErrTooLarge reports a preamble length beyond what the caller, the
	// format's 32-bit preamble contract or the platform's int allows.
	ErrTooLarge = errors.New("snappy: decoded length too large")
)

const (
	tagLiteral = 0x00
	tagCopy1   = 0x01
	tagCopy2   = 0x02
	tagCopy4   = 0x03

	// maxDecodedLen is the format-level ceiling on the preamble: the
	// spec stores a 32-bit length. Callers enforce their own (smaller)
	// policy limit before allocating. Every length is compared as a
	// uint64, and one that an int cannot hold (on 32-bit platforms) is
	// refused too.
	maxDecodedLen = 1<<32 - 1
)

// DecodedLen parses the preamble and returns the decompressed length
// plus the number of preamble bytes. It reads at most 5 bytes, so a
// server can reject an oversized request before allocating anything.
func DecodedLen(src []byte) (n int, preamble int, err error) {
	v, sz := binary.Uvarint(src)
	if sz <= 0 {
		return 0, 0, ErrCorrupt
	}
	if v > maxDecodedLen || v > math.MaxInt {
		return 0, 0, ErrTooLarge
	}
	return int(v), sz, nil
}

// Decode decompresses src and returns the plaintext. The preamble length
// is trusted only as an allocation hint after validation: the element
// stream must produce exactly that many bytes, no more and no fewer.
func Decode(src []byte) ([]byte, error) {
	return AppendDecode(nil, src)
}

// AppendDecode decompresses src into dst's storage, growing it only when
// the plaintext outsizes dst's capacity, and returns the plaintext slice
// (len = decompressed length). The pooled-buffer form of Decode: a server
// decompressing similar-sized requests reuses one buffer across all of
// them. dst's length is ignored; its contents are overwritten.
func AppendDecode(dst, src []byte) ([]byte, error) {
	n, sz, err := DecodedLen(src)
	if err != nil {
		return nil, err
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	if err := decodeBody(dst, src[sz:]); err != nil {
		return nil, err
	}
	return dst, nil
}

// decodeBody fills dst exactly from the element stream in src.
func decodeBody(dst, src []byte) error {
	var d, s int
	for s < len(src) {
		tag := src[s]
		var length, offset int
		switch tag & 0x03 {
		case tagLiteral:
			length = int(tag >> 2)
			s++
			if length >= 60 {
				extra := length - 59 // 1..4 length bytes follow
				if s+extra > len(src) {
					return ErrCorrupt
				}
				var u uint64
				for i := extra - 1; i >= 0; i-- {
					u = u<<8 | uint64(src[s+i])
				}
				s += extra
				if u > maxDecodedLen-1 || u >= math.MaxInt {
					return ErrCorrupt
				}
				length = int(u)
			}
			length++
			if length > len(src)-s || length > len(dst)-d {
				return ErrCorrupt
			}
			copy(dst[d:], src[s:s+length])
			d += length
			s += length
			continue
		case tagCopy1:
			if s+2 > len(src) {
				return ErrCorrupt
			}
			length = 4 + int(tag>>2)&0x07
			offset = int(tag&0xe0)<<3 | int(src[s+1])
			s += 2
		case tagCopy2:
			if s+3 > len(src) {
				return ErrCorrupt
			}
			length = 1 + int(tag>>2)
			offset = int(binary.LittleEndian.Uint16(src[s+1:]))
			s += 3
		case tagCopy4:
			if s+5 > len(src) {
				return ErrCorrupt
			}
			length = 1 + int(tag>>2)
			u := uint64(binary.LittleEndian.Uint32(src[s+1:]))
			if u > math.MaxInt {
				return ErrCorrupt
			}
			offset = int(u)
			s += 5
		}
		if offset <= 0 || offset > d || d+length > len(dst) {
			return ErrCorrupt
		}
		// Overlapping copies (offset < length) repeat recent output, so
		// a forward byte loop is the semantics, not an optimization
		// fallback. copy() would read stale bytes.
		for i := 0; i < length; i++ {
			dst[d+i] = dst[d+i-offset]
		}
		d += length
	}
	if d != len(dst) {
		return ErrCorrupt
	}
	return nil
}

// Encode compresses src into the block format. The output always starts
// with the uvarint preamble; an empty src encodes to just the preamble
// byte 0x00.
func Encode(src []byte) []byte {
	if uint64(len(src)) > maxDecodedLen {
		// The preamble cannot represent it; callers never get close
		// (request bodies are capped far below 4 GiB).
		panic(fmt.Sprintf("snappy: source too large: %d", len(src)))
	}
	dst := make([]byte, 0, binary.MaxVarintLen32+len(src)+len(src)/6+8)
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	// Compress in independent 64 KiB windows so every match offset fits
	// the 2-byte copy2 form.
	for len(src) > 0 {
		blk := src
		if len(blk) > maxBlockSize {
			blk = blk[:maxBlockSize]
		}
		dst = encodeBlock(dst, blk)
		src = src[len(blk):]
	}
	return dst
}

const (
	maxBlockSize  = 1 << 16
	hashTableBits = 14
	minMatchLen   = 4
)

// encodeBlock appends the element stream for one ≤64 KiB window: a
// greedy scan with a 4-byte hash table, emitting a literal for the gap
// before each match and extending every match as far as it goes.
func encodeBlock(dst, src []byte) []byte {
	if len(src) < minMatchLen {
		return emitLiteral(dst, src)
	}
	var table [1 << hashTableBits]int32 // candidate position +1; 0 = empty
	lit := 0                            // start of the pending literal run
	i := 0
	for i+minMatchLen <= len(src) {
		h := hash4(binary.LittleEndian.Uint32(src[i:]))
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand < 0 || binary.LittleEndian.Uint32(src[cand:]) != binary.LittleEndian.Uint32(src[i:]) {
			i++
			continue
		}
		// Extend the match beyond the seed 4 bytes.
		length := minMatchLen
		for i+length < len(src) && src[cand+length] == src[i+length] {
			length++
		}
		dst = emitLiteral(dst, src[lit:i])
		dst = emitCopy(dst, i-cand, length)
		i += length
		lit = i
	}
	return emitLiteral(dst, src[lit:])
}

func hash4(u uint32) uint32 {
	return (u * 0x1e35a7bd) >> (32 - hashTableBits)
}

// emitLiteral appends a literal element (split if over the one-extra-
// byte length form's reach; blocks are ≤64 KiB so two bytes suffice).
func emitLiteral(dst, lit []byte) []byte {
	for len(lit) > 0 {
		n := len(lit)
		switch {
		case n <= 60:
			dst = append(dst, byte(n-1)<<2|tagLiteral)
		case n <= 1<<8:
			dst = append(dst, 60<<2|tagLiteral, byte(n-1))
		default:
			if n > 1<<16 {
				n = 1 << 16
			}
			dst = append(dst, 61<<2|tagLiteral, byte(n-1), byte((n-1)>>8))
		}
		dst = append(dst, lit[:n]...)
		lit = lit[n:]
	}
	return dst
}

// emitCopy appends copy elements covering length bytes at the given
// offset. Long matches chunk into 64-byte copy2 elements; the tail picks
// copy1 when it fits (short length, offset < 2048), else copy2.
func emitCopy(dst []byte, offset, length int) []byte {
	for length >= 68 {
		dst = append(dst, 63<<2|tagCopy2, byte(offset), byte(offset>>8))
		length -= 64
	}
	if length > 64 {
		// Leave a tail in 4..64 so the final element is always valid.
		dst = append(dst, 59<<2|tagCopy2, byte(offset), byte(offset>>8))
		length -= 60
	}
	if length >= 4 && length <= 11 && offset < 2048 {
		dst = append(dst, byte(offset>>8)<<5|byte(length-4)<<2|tagCopy1, byte(offset))
		return dst
	}
	return append(dst, byte(length-1)<<2|tagCopy2, byte(offset), byte(offset>>8))
}
