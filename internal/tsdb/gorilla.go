package tsdb

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/sieve-microservices/sieve/internal/timeseries"
)

// Point is one stored observation: T in milliseconds, value V. It is
// timeseries.Point, so a query result resamples without a copy.
type Point = timeseries.Point

// CompressBlock encodes a time-ordered batch of points with the Gorilla
// scheme (Pelkonen et al., VLDB 2015): the first timestamp and value are
// stored raw, timestamp deltas are encoded as delta-of-delta with
// variable-width buckets, and values are XORed against their predecessor
// with leading/trailing-zero windows. Points must be in non-decreasing
// time order (enforced); an empty batch encodes to an empty block.
func CompressBlock(points []Point) ([]byte, error) {
	return appendCompressed(nil, points)
}

// appendCompressed appends the encoding of points to dst, so a writer of
// many chunks reuses one buffer; on error dst's contents are undefined.
func appendCompressed(dst []byte, points []Point) ([]byte, error) {
	if len(points) == 0 {
		return dst, nil
	}
	w := &bitWriter{buf: dst}

	// Header: count (32 bits), first timestamp (64), first value (64).
	w.writeBits(uint64(len(points)), 32)
	w.writeBits(uint64(points[0].T), 64)
	w.writeBits(math.Float64bits(points[0].V), 64)

	prevT := points[0].T
	var prevDelta int64
	prevV := math.Float64bits(points[0].V)
	prevLeading, prevTrailing := -1, -1

	for i := 1; i < len(points); i++ {
		p := points[i]
		if p.T < prevT {
			return nil, fmt.Errorf("tsdb: timestamps not ordered at index %d (%d < %d)", i, p.T, prevT)
		}

		// Timestamp: delta-of-delta bucket encoding.
		delta := p.T - prevT
		dod := delta - prevDelta
		switch {
		case dod == 0:
			w.writeBit(false)
		case dod >= -63 && dod <= 64:
			w.writeBits(0b10, 2)
			w.writeBits(uint64(dod+63), 7)
		case dod >= -255 && dod <= 256:
			w.writeBits(0b110, 3)
			w.writeBits(uint64(dod+255), 9)
		case dod >= -2047 && dod <= 2048:
			w.writeBits(0b1110, 4)
			w.writeBits(uint64(dod+2047), 12)
		default:
			w.writeBits(0b1111, 4)
			w.writeBits(uint64(dod), 64)
		}
		prevT, prevDelta = p.T, delta

		// Value: XOR encoding.
		cur := math.Float64bits(p.V)
		xor := cur ^ prevV
		switch {
		case xor == 0:
			w.writeBit(false)
		default:
			w.writeBit(true)
			leading := bits.LeadingZeros64(xor)
			trailing := bits.TrailingZeros64(xor)
			if leading > 31 {
				leading = 31 // 5-bit field
			}
			if prevLeading >= 0 && leading >= prevLeading && trailing >= prevTrailing {
				// Fits inside the previous meaningful window.
				w.writeBit(false)
				meaningful := 64 - prevLeading - prevTrailing
				w.writeBits(xor>>uint(prevTrailing), meaningful)
			} else {
				w.writeBit(true)
				meaningful := 64 - leading - trailing
				w.writeBits(uint64(leading), 5)
				// meaningful is in 1..64; store 64 as 0 to fit 6 bits.
				w.writeBits(uint64(meaningful&63), 6)
				w.writeBits(xor>>uint(trailing), meaningful)
				prevLeading, prevTrailing = leading, trailing
			}
		}
		prevV = cur
	}
	return w.bytes(), nil
}

// chunkIter streams a compressed chunk point by point, so readers that
// only need an aggregate (or a sub-range) never materialize the decoded
// []Point slice. The zero cost per point is the same as DecompressBlock's
// inner loop; the iterator is just that loop with its state lifted out.
type chunkIter struct {
	r     bitReader
	count uint64
	i     uint64

	prevT                     int64
	prevDelta                 int64
	prevV                     uint64
	prevLeading, prevTrailing int

	// cur is the current point, valid after next returns true.
	cur Point
}

// reset re-arms the iterator on a new chunk, validating the header and
// positioning before the first point. It returns false for an empty
// chunk (no points, no error), matching DecompressBlock on an empty
// block. The iterator is a plain value — callers that scan many chunks
// keep one on the stack and reset it per chunk, so the hot decode path
// allocates nothing.
func (it *chunkIter) reset(chunk []byte) (bool, error) {
	if len(chunk) == 0 {
		return false, nil
	}
	r := bitReader{buf: chunk}
	count, err := r.readBits(32)
	if err != nil {
		return false, err
	}
	if count == 0 {
		return false, errors.New("tsdb: block with zero count")
	}
	// Plausibility bound against corrupted headers: every point after the
	// first costs at least 2 bits (one timestamp control bit + one value
	// control bit), so the claimed count cannot exceed what the buffer
	// can physically hold. Without this check a flipped header bit could
	// demand a multi-gigabyte allocation.
	maxPoints := uint64(len(chunk))*8/2 + 1
	if count > maxPoints {
		return false, fmt.Errorf("tsdb: block claims %d points but holds at most %d", count, maxPoints)
	}
	t0, err := r.readBits(64)
	if err != nil {
		return false, err
	}
	v0, err := r.readBits(64)
	if err != nil {
		return false, err
	}
	*it = chunkIter{
		r:            r,
		count:        count,
		prevT:        int64(t0),
		prevV:        v0,
		prevLeading:  -1,
		prevTrailing: -1,
	}
	return true, nil
}

// newChunkIter validates the chunk header and positions a fresh
// iterator before the first point. An empty chunk yields a nil iterator
// (no points, no error).
func newChunkIter(chunk []byte) (*chunkIter, error) {
	it := new(chunkIter)
	ok, err := it.reset(chunk)
	if err != nil || !ok {
		return nil, err
	}
	return it, nil
}

// next advances to the following point, reporting false at the end of
// the chunk. After a true return, it.cur holds the point.
func (it *chunkIter) next() (bool, error) {
	if it.i >= it.count {
		return false, nil
	}
	if it.i == 0 {
		it.i++
		it.cur = Point{T: it.prevT, V: math.Float64frombits(it.prevV)}
		return true, nil
	}
	dod, err := readDoD(&it.r)
	if err != nil {
		return false, err
	}
	delta := it.prevDelta + dod
	t := it.prevT + delta
	it.prevT, it.prevDelta = t, delta

	v, leading, trailing, err := readXORValue(&it.r, it.prevV, it.prevLeading, it.prevTrailing)
	if err != nil {
		return false, err
	}
	it.prevV = v
	if leading >= 0 {
		it.prevLeading, it.prevTrailing = leading, trailing
	}
	it.i++
	it.cur = Point{T: t, V: math.Float64frombits(v)}
	return true, nil
}

// DecompressBlock decodes a block produced by CompressBlock.
func DecompressBlock(block []byte) ([]Point, error) {
	it, err := newChunkIter(block)
	if err != nil || it == nil {
		return nil, err
	}
	out := make([]Point, 0, it.count)
	for {
		ok, err := it.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, it.cur)
	}
}

// readDoD decodes one delta-of-delta bucket.
func readDoD(r *bitReader) (int64, error) {
	bit, err := r.readBit()
	if err != nil {
		return 0, err
	}
	if !bit {
		return 0, nil
	}
	// Count additional prefix ones (up to 3 more).
	prefix := 1
	for prefix < 4 {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if !b {
			break
		}
		prefix++
	}
	switch prefix {
	case 1: // '10'
		v, err := r.readBits(7)
		if err != nil {
			return 0, err
		}
		return int64(v) - 63, nil
	case 2: // '110'
		v, err := r.readBits(9)
		if err != nil {
			return 0, err
		}
		return int64(v) - 255, nil
	case 3: // '1110'
		v, err := r.readBits(12)
		if err != nil {
			return 0, err
		}
		return int64(v) - 2047, nil
	default: // '1111'
		v, err := r.readBits(64)
		if err != nil {
			return 0, err
		}
		return int64(v), nil
	}
}

// readXORValue decodes one XOR-encoded value; it returns the new window
// when the control bits establish one (leading >= 0), else -1s.
func readXORValue(r *bitReader, prevV uint64, prevLeading, prevTrailing int) (v uint64, leading, trailing int, err error) {
	bit, err := r.readBit()
	if err != nil {
		return 0, -1, -1, err
	}
	if !bit {
		return prevV, -1, -1, nil
	}
	ctrl, err := r.readBit()
	if err != nil {
		return 0, -1, -1, err
	}
	if !ctrl {
		// Reuse the previous window.
		if prevLeading < 0 {
			return 0, -1, -1, errors.New("tsdb: window reuse before any window was set")
		}
		meaningful := 64 - prevLeading - prevTrailing
		mbits, err := r.readBits(meaningful)
		if err != nil {
			return 0, -1, -1, err
		}
		return prevV ^ (mbits << uint(prevTrailing)), -1, -1, nil
	}
	lead, err := r.readBits(5)
	if err != nil {
		return 0, -1, -1, err
	}
	mlen, err := r.readBits(6)
	if err != nil {
		return 0, -1, -1, err
	}
	meaningful := int(mlen)
	if meaningful == 0 {
		meaningful = 64
	}
	trail := 64 - int(lead) - meaningful
	if trail < 0 {
		return 0, -1, -1, errors.New("tsdb: corrupt XOR window")
	}
	mbits, err := r.readBits(meaningful)
	if err != nil {
		return 0, -1, -1, err
	}
	return prevV ^ (mbits << uint(trail)), int(lead), trail, nil
}
