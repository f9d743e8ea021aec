package tsdb

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// bitWriter packs bits most-significant-first into a byte slice. It is the
// substrate of the Gorilla codec: every append writes a handful of bits, so
// the writer keeps the partially-filled final byte hot and grows its buffer
// with ordinary append doubling (amortized; the steady-state append path
// does not allocate).
type bitWriter struct {
	buf  []byte
	free uint8 // writable low bits remaining in buf's final byte (0 = none)
}

// bytes returns the packed stream; unused trailing bits are zero.
func (w *bitWriter) bytes() []byte { return w.buf }

//zerosum:hotpath
func (w *bitWriter) writeBit(bit byte) {
	if w.free == 0 {
		w.buf = append(w.buf, 0)
		w.free = 8
	}
	if bit != 0 {
		w.buf[len(w.buf)-1] |= 1 << (w.free - 1)
	}
	w.free--
}

//zerosum:hotpath
func (w *bitWriter) writeByte(b byte) {
	if w.free == 0 {
		w.buf = append(w.buf, b)
		return
	}
	// Split across the partial final byte and a fresh one; free is
	// unchanged because exactly eight bits landed.
	w.buf[len(w.buf)-1] |= b >> (8 - w.free)
	w.buf = append(w.buf, b<<w.free)
}

// writeBits writes the low n bits of v, most significant first. n must be
// in 1..64.
//
//zerosum:hotpath
func (w *bitWriter) writeBits(v uint64, n uint) {
	v <<= 64 - n
	for n >= 8 {
		w.writeByte(byte(v >> 56))
		v <<= 8
		n -= 8
	}
	if n == 0 {
		return
	}
	// The remaining 1..7 bits sit left-aligned in b with zeros below them,
	// so they land with at most two stores: the part that fits the final
	// byte's free bits, and the spill into a fresh byte.
	b, k := byte(v>>56), uint8(n)
	if w.free == 0 {
		w.buf = append(w.buf, b)
		w.free = 8 - k
		return
	}
	w.buf[len(w.buf)-1] |= b >> (8 - w.free)
	if k <= w.free {
		w.free -= k
		return
	}
	w.buf = append(w.buf, b<<w.free)
	w.free += 8 - k
}

// errShortChunk reports a bitstream that ended before its declared sample
// count was decoded — the decoder's over-read guard on corrupt chunks.
var errShortChunk = errors.New("tsdb: chunk bitstream shorter than its sample count")

// bitReader consumes a bitWriter stream a 64-bit word at a time. Reads past
// the end return errShortChunk instead of panicking, which is what the
// block fuzzer leans on: a corrupt sample count can never walk the reader
// off its buffer.
type bitReader struct {
	buf []byte
	pos int // next bit, counted from the start of buf
}

func (r *bitReader) init(buf []byte) {
	r.buf = buf
	r.pos = 0
}

// peek returns the next 64 bits of the stream left-aligned, zero-padded
// past the end of the buffer, without consuming them.
//
//zerosum:hotpath
func (r *bitReader) peek() uint64 {
	i, sh := r.pos>>3, uint(r.pos&7)
	if i+9 <= len(r.buf) {
		// One big-endian word plus the byte the bit offset spills into
		// (a shift by 8 when sh is 0 drops that byte again).
		return binary.BigEndian.Uint64(r.buf[i:])<<sh | uint64(r.buf[i+8])>>(8-sh)
	}
	// Fewer than nine bytes left: gather the tail byte by byte.
	var w uint64
	for k, b := range r.buf[i:] {
		w |= uint64(b) << (56 - 8*uint(k))
	}
	return w << sh
}

// readBits reads n bits (1..64), most significant first.
//
//zerosum:hotpath
func (r *bitReader) readBits(n uint) (uint64, error) {
	if r.pos+int(n) > len(r.buf)*8 {
		return 0, errShortChunk
	}
	v := r.peek() >> (64 - n)
	r.pos += int(n)
	return v, nil
}

// readUnary reads the codec's selector prefix: a run of up to max 1-bits
// closed by a 0-bit, which is omitted when the run reaches max. It returns
// the length of the run.
//
//zerosum:hotpath
func (r *bitReader) readUnary(max int) (int, error) {
	ones := bits.LeadingZeros64(^r.peek())
	n := ones + 1
	if ones >= max {
		ones, n = max, max
	}
	// peek pads with zeros, so a run cut off by the end of the buffer looks
	// closed; the length check catches it.
	if r.pos+n > len(r.buf)*8 {
		return 0, errShortChunk
	}
	r.pos += n
	return ones, nil
}
