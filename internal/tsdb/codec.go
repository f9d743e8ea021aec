package tsdb

import (
	"math"
	"math/bits"
)

// Gorilla-style stream codec (Pelkonen et al., "Gorilla: A Fast, Scalable,
// In-Memory Time Series Database", VLDB 2015), adapted to this store's
// nanosecond sample clock:
//
//   - Timestamps are delta-of-delta encoded. The first sample writes its
//     timestamp raw (64 bits); every later sample writes dod = (tᵢ - tᵢ₋₁)
//     - (tᵢ₋₁ - tᵢ₋₂), zigzagged and bucketed by magnitude. A perfectly
//     periodic sampler — the steady state the paper's monitor converges to
//     — emits dod = 0, a single bit per timestamp. The bucket widths are
//     wider than Gorilla's (14/24/40/64 against seconds-resolution 7/9/12/
//     32) because nanosecond jitter is bigger in absolute terms.
//   - Values XOR against their predecessor. An unchanged value is one bit;
//     a changed value writes only the significant window of the XOR,
//     reusing the previous window when it still fits ('10') or declaring a
//     new one ('11' + 5 bits leading + 6 bits length).
//
// dod buckets (after zigzag):
//
//	0                  -> '0'
//	< 2^14             -> '10'   + 14 bits
//	< 2^24             -> '110'  + 24 bits
//	< 2^40             -> '1110' + 40 bits
//	else               -> '1111' + 64 bits
//
// The codec is lossless over (int64, float64): every bit pattern round
// trips, including NaNs, infinities and negative zero, and timestamps may
// go backwards (a late retry of a gap batch lands where it lands) — only
// the encoded size, never correctness, assumes near-monotonic time.

// noWindow marks a value encoder/decoder that has not yet declared a
// significant-bit window ('11' control path).
const noWindow = 0xff

// gState is the shared per-stream codec state.
type gState struct {
	t        int64  // previous timestamp
	tDelta   int64  // previous delta
	vBits    uint64 // previous value's bit pattern
	leading  uint8
	trailing uint8
}

func (s *gState) init() { s.leading = noWindow }

// appendSample encodes one (t, v) against the state into w. n is how many
// samples the stream already holds.
//
//zerosum:hotpath
func (s *gState) appendSample(w *bitWriter, n int, t int64, v float64) {
	vb := math.Float64bits(v)
	if n == 0 {
		w.writeBits(uint64(t), 64)
		w.writeBits(vb, 64)
		s.t, s.tDelta, s.vBits = t, 0, vb
		s.leading = noWindow
		return
	}
	delta := t - s.t
	zz := zigzag(delta - s.tDelta)
	switch {
	case zz == 0:
		w.writeBit(0)
	case zz < 1<<14:
		w.writeBits(0b10, 2)
		w.writeBits(zz, 14)
	case zz < 1<<24:
		w.writeBits(0b110, 3)
		w.writeBits(zz, 24)
	case zz < 1<<40:
		w.writeBits(0b1110, 4)
		w.writeBits(zz, 40)
	default:
		w.writeBits(0b1111, 4)
		w.writeBits(zz, 64)
	}
	s.t, s.tDelta = t, delta

	xor := s.vBits ^ vb
	s.vBits = vb
	if xor == 0 {
		w.writeBit(0)
		return
	}
	w.writeBit(1)
	lead := uint8(bits.LeadingZeros64(xor))
	trail := uint8(bits.TrailingZeros64(xor))
	if lead > 31 {
		lead = 31 // 5-bit field; extra leading zeros ride inside the window
	}
	if s.leading != noWindow && lead >= s.leading && trail >= s.trailing {
		w.writeBit(0)
		w.writeBits(xor>>s.trailing, uint(64-s.leading-s.trailing))
		return
	}
	s.leading, s.trailing = lead, trail
	sig := 64 - lead - trail
	w.writeBit(1)
	w.writeBits(uint64(lead), 5)
	w.writeBits(uint64(sig-1), 6) // sig is 1..64; stored as 0..63
	w.writeBits(xor>>trail, uint(sig))
}

// gIter decodes a Gorilla bitstream of a known sample count. The zero
// value is unusable; call init. It is a value type so scan loops can keep
// it on the stack.
type gIter struct {
	r   bitReader
	st  gState
	n   int // declared sample count
	i   int // samples decoded
	t   int64
	v   float64
	err error
}

func (it *gIter) init(data []byte, count int) {
	*it = gIter{n: count}
	it.r.init(data)
	it.st.init()
}

// Next advances to the next sample; false at the end of the stream or on a
// corrupt bitstream (check Err).
//
//zerosum:hotpath
func (it *gIter) Next() bool {
	if it.err != nil || it.i >= it.n {
		return false
	}
	if it.i == 0 {
		tb, err := it.r.readBits(64)
		if err != nil {
			it.err = err
			return false
		}
		vb, err := it.r.readBits(64)
		if err != nil {
			it.err = err
			return false
		}
		it.st.t, it.st.tDelta, it.st.vBits = int64(tb), 0, vb
	} else {
		if err := it.next(); err != nil {
			it.err = err
			return false
		}
	}
	it.t, it.v = it.st.t, math.Float64frombits(it.st.vBits)
	it.i++
	return true
}

// dodWidths maps the timestamp selector's run of 1-bits to the width of
// the zigzagged dod that follows ('0' carries none).
var dodWidths = [...]uint{0, 14, 24, 40, 64}

// next decodes one sample after the first. One peek holds the timestamp
// selector, any dod but a 64-bit one, the value's control bits and a new
// window's header; only a 64-bit dod and the value's window peek again.
// peek reads zeros past the end of the buffer, so the sample is checked
// against the end once, after it is decoded.
//
//zerosum:hotpath
func (it *gIter) next() error {
	r := &it.r
	w := r.peek()
	// Timestamp: a run of up to four 1-bits closed by a 0-bit (omitted
	// after four) selects the width of the zigzagged dod.
	var n uint // bits of w consumed
	var dod int64
	switch sel := bits.LeadingZeros64(^w); {
	case sel == 0:
		n = 1
	case sel < 4:
		n = uint(sel) + 1 + dodWidths[sel]
		dod = unzigzag(w << (sel + 1) >> (64 - dodWidths[sel]))
	default:
		r.pos += 4
		dod = unzigzag(r.peek())
		r.pos += 64
		w = r.peek()
	}
	it.st.tDelta += dod
	it.st.t += it.st.tDelta

	// Value: '0' same, '10' prior window, '11' new window.
	if w <<= n; w>>63 == 0 {
		n++
	} else {
		if w>>62 == 0b11 {
			// 5 bits of leading-zero count, then 6 bits of window length - 1.
			lead, sig := uint8(w>>57&31), uint8(w>>51&63)+1
			if lead+sig > 64 {
				return errShortChunk // impossible window: corrupt stream
			}
			it.st.leading, it.st.trailing = lead, 64-lead-sig
			n += 11
		} else if it.st.leading == noWindow {
			return errShortChunk // window reuse before any window was declared
		}
		r.pos += int(n) + 2
		n = 64 - uint(it.st.leading) - uint(it.st.trailing)
		it.st.vBits ^= r.peek() >> (64 - n) << it.st.trailing
	}
	if r.pos += int(n); r.pos > len(r.buf)*8 {
		return errShortChunk
	}
	return nil
}

// At returns the current sample.
func (it *gIter) At() (int64, float64) { return it.t, it.v }

// Err reports a corrupt bitstream (nil on clean exhaustion).
func (it *gIter) Err() error { return it.err }
