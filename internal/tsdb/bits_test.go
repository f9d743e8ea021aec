package tsdb

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The bit-at-a-time writer, reader and decoder below are the ones the
// word-at-a-time code in bits.go and codec.go replaced. They stay here as
// the reference: the bitstream is a storage format (ZSTB blocks, the fuzz
// corpora), so the fast paths must agree with them bit for bit, including
// where a truncated stream stops decoding.

type refBitWriter struct {
	buf  []byte
	free uint8
}

func (w *refBitWriter) writeBit(bit byte) {
	if w.free == 0 {
		w.buf = append(w.buf, 0)
		w.free = 8
	}
	if bit != 0 {
		w.buf[len(w.buf)-1] |= 1 << (w.free - 1)
	}
	w.free--
}

func (w *refBitWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.writeBit(byte(v>>uint(i)) & 1)
	}
}

type refBitReader struct {
	buf  []byte
	off  int
	used uint8
}

func (r *refBitReader) readBit() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, errShortChunk
	}
	b := (r.buf[r.off] >> (7 - r.used)) & 1
	r.used++
	if r.used == 8 {
		r.used = 0
		r.off++
	}
	return b, nil
}

func (r *refBitReader) readBits(n uint) (uint64, error) {
	var v uint64
	for ; n > 0; n-- {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(bit)
	}
	return v, nil
}

// readUnary is the selector loop the old decoder spelled out inline.
func (r *refBitReader) readUnary(max int) (int, error) {
	for ones := 0; ones < max; ones++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b == 0 {
			return ones, nil
		}
	}
	return max, nil
}

func (r *refBitReader) pos() int { return r.off*8 + int(r.used) }

// refDecode is the old gIter: it decodes up to count samples from data and
// returns them with the error that stopped it (nil on clean exhaustion).
func refDecode(data []byte, count int) ([]Point, error) {
	r := refBitReader{buf: data}
	var st gState
	st.init()
	var pts []Point
	for i := 0; i < count; i++ {
		if i == 0 {
			tb, err := r.readBits(64)
			if err != nil {
				return pts, err
			}
			vb, err := r.readBits(64)
			if err != nil {
				return pts, err
			}
			st.t, st.tDelta, st.vBits = int64(tb), 0, vb
		} else if err := refNext(&r, &st); err != nil {
			return pts, err
		}
		pts = append(pts, Point{T: st.t, V: math.Float64frombits(st.vBits)})
	}
	return pts, nil
}

func refNext(r *refBitReader, st *gState) error {
	var width uint
	for i := 0; i < 4; i++ {
		b, err := r.readBit()
		if err != nil {
			return err
		}
		if b == 0 {
			break
		}
		width = [...]uint{14, 24, 40, 64}[i]
	}
	var dod int64
	if width > 0 {
		zz, err := r.readBits(width)
		if err != nil {
			return err
		}
		dod = unzigzag(zz)
	}
	st.tDelta += dod
	st.t += st.tDelta

	b, err := r.readBit()
	if err != nil {
		return err
	}
	if b == 0 {
		return nil
	}
	if b, err = r.readBit(); err != nil {
		return err
	}
	if b == 1 {
		lead, err := r.readBits(5)
		if err != nil {
			return err
		}
		sigM1, err := r.readBits(6)
		if err != nil {
			return err
		}
		sig := uint8(sigM1) + 1
		if uint(lead)+uint(sig) > 64 {
			return errShortChunk
		}
		st.leading = uint8(lead)
		st.trailing = 64 - uint8(lead) - sig
	} else if st.leading == noWindow {
		return errShortChunk
	}
	sig := uint(64 - st.leading - st.trailing)
	xor, err := r.readBits(sig)
	if err != nil {
		return err
	}
	st.vBits ^= xor << st.trailing
	return nil
}

// field is one write of a random width sequence.
type field struct {
	v uint64
	n uint
}

// randomFields draws widths over the whole 1..64 range with the codec's
// own favourites (1, 2, 5, 6, 14, 64) over-represented, so every width
// meets every bit alignment within a few hundred draws.
func randomFields(rng *rand.Rand, count int) []field {
	fs := make([]field, count)
	for i := range fs {
		n := uint(1 + rng.Intn(64))
		if rng.Intn(3) == 0 {
			n = []uint{1, 2, 3, 4, 5, 6, 7, 8, 11, 14, 24, 40, 63, 64}[rng.Intn(14)]
		}
		v := rng.Uint64()
		switch rng.Intn(4) {
		case 0:
			v = 0
		case 1:
			v = ^uint64(0)
		}
		if n < 64 {
			v &= 1<<n - 1
		}
		fs[i] = field{v: v, n: n}
	}
	return fs
}

func TestBitWriterMatchesReference(t *testing.T) {
	// Every width at every alignment, exhaustively: `lead` bits of prefix
	// put the writer at each offset inside a byte, then one n-bit field,
	// then a marker bit that would expose a wrong `free`.
	for lead := uint(0); lead < 8; lead++ {
		for n := uint(1); n <= 64; n++ {
			for _, v := range []uint64{0, ^uint64(0), 0xa5a5a5a5a5a5a5a5, 1, 1 << 63} {
				if n < 64 {
					v &= 1<<n - 1
				}
				var w bitWriter
				var ref refBitWriter
				if lead > 0 {
					w.writeBits(0x55, lead)
					ref.writeBits(0x55, lead)
				}
				w.writeBits(v, n)
				ref.writeBits(v, n)
				w.writeBit(1)
				ref.writeBit(1)
				if !bytes.Equal(w.bytes(), ref.buf) || w.free != ref.free {
					t.Fatalf("lead=%d n=%d v=%#x: got %x free %d, reference %x free %d",
						lead, n, v, w.bytes(), w.free, ref.buf, ref.free)
				}
			}
		}
	}
	// Random sequences, mixing all three entry points.
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w bitWriter
		var ref refBitWriter
		for i, f := range randomFields(rng, 500) {
			switch {
			case f.n == 1:
				w.writeBit(byte(f.v))
			case f.n == 8 && i%2 == 0:
				w.writeByte(byte(f.v))
			default:
				w.writeBits(f.v, f.n)
			}
			ref.writeBits(f.v, f.n)
			if !bytes.Equal(w.bytes(), ref.buf) || w.free != ref.free {
				t.Fatalf("seed %d field %d (n=%d v=%#x): writer diverged from the reference", seed, i, f.n, f.v)
			}
		}
	}
}

func TestBitReaderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fields := randomFields(rng, 200)
		var ref refBitWriter
		for _, f := range fields {
			ref.writeBits(f.v, f.n)
		}
		// Every truncation point: both readers must return the same values
		// and stop with errShortChunk at the same field, and a failed read
		// must fail again rather than resume.
		for cut := len(ref.buf); cut >= 0; cut-- {
			var r bitReader
			r.init(ref.buf[:cut])
			rr := refBitReader{buf: ref.buf[:cut]}
			for i, f := range fields {
				got, err := r.readBits(f.n)
				want, refErr := rr.readBits(f.n)
				if err != refErr || got != want {
					t.Fatalf("seed %d cut %d field %d (n=%d): got %#x, %v; reference %#x, %v",
						seed, cut, i, f.n, got, err, want, refErr)
				}
				if err != nil {
					if err != errShortChunk {
						t.Fatalf("seed %d cut %d: over-read reported %v, want errShortChunk", seed, cut, err)
					}
					if _, again := r.readBits(f.n); again != errShortChunk {
						t.Fatalf("seed %d cut %d: a failed read succeeded on retry", seed, cut)
					}
					break
				}
				if cut == len(ref.buf) && got != f.v {
					t.Fatalf("seed %d field %d: read %#x, wrote %#x", seed, i, got, f.v)
				}
			}
		}
	}
}

// TestDecoderMatchesReferenceOnOneRuns feeds both decoders streams biased
// toward long runs of 1-bits, including all-ones tails where only the end
// of the buffer closes a selector: the case the one-peek decoder reads as
// zero padding and must still reject where the reference runs out of bits.
func TestDecoderMatchesReferenceOnOneRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 4000; round++ {
		buf := make([]byte, rng.Intn(48))
		for i := range buf {
			switch rng.Intn(3) {
			case 0:
				buf[i] = 0xff
			case 1:
				buf[i] = byte(rng.Intn(256))
			default:
				buf[i] = byte(0xff << uint(rng.Intn(8)))
			}
		}
		count := 1 + rng.Intn(20)
		got, err := decodeAll(buf, count)
		want, refErr := refDecode(buf, count)
		if err != refErr || !samePoints(got, want) {
			t.Fatalf("round %d stream %x count=%d: decoded %d samples, %v; reference %d samples, %v",
				round, buf, count, len(got), err, len(want), refErr)
		}
	}
}

// decodeAll drains a gIter the way every caller does.
func decodeAll(data []byte, count int) ([]Point, error) {
	var it gIter
	it.init(data, count)
	var pts []Point
	for it.Next() {
		t, v := it.At()
		pts = append(pts, Point{T: t, V: v})
	}
	return pts, it.Err()
}

func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || !sameBits(a[i].V, b[i].V) {
			return false
		}
	}
	return true
}

func TestDecoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	streams := map[string][]Point{
		"sampler": samplerTrace(300, 1e9, 1e6, rng),
	}
	// Wild timestamps and values reach every dod bucket and window shape.
	wild := make([]Point, 300)
	for i := range wild {
		wild[i] = Point{T: rng.Int63() >> uint(rng.Intn(64)), V: math.Float64frombits(rng.Uint64() >> uint(rng.Intn(64)))}
	}
	streams["wild"] = wild
	for name, samples := range streams {
		var w bitWriter
		var st gState
		st.init()
		for i, p := range samples {
			st.appendSample(&w, i, p.T, p.V)
		}
		full := w.bytes()
		for cut := 0; cut <= len(full); cut++ {
			got, err := decodeAll(full[:cut], len(samples))
			want, refErr := refDecode(full[:cut], len(samples))
			if err != refErr || !samePoints(got, want) {
				t.Fatalf("%s cut=%d: decoded %d samples, %v; reference %d samples, %v",
					name, cut, len(got), err, len(want), refErr)
			}
		}
		if got, err := decodeAll(full, len(samples)); err != nil || !samePoints(got, samples) {
			t.Fatalf("%s: full stream did not round-trip (%d samples, %v)", name, len(got), err)
		}
	}
	// Arbitrary bytes are what a corrupt block hands the decoder: both
	// must read the same samples out of them and give up at the same one.
	for round := 0; round < 2000; round++ {
		data := make([]byte, rng.Intn(64))
		rng.Read(data)
		count := 1 + rng.Intn(40)
		got, err := decodeAll(data, count)
		want, refErr := refDecode(data, count)
		if err != refErr || !samePoints(got, want) {
			t.Fatalf("garbage %x count=%d: decoded %d samples, %v; reference %d samples, %v",
				data, count, len(got), err, len(want), refErr)
		}
	}
}

func TestIterErrIsSticky(t *testing.T) {
	samples := samplerTrace(50, 1e9, 1e6, rand.New(rand.NewSource(3)))
	var w bitWriter
	var st gState
	st.init()
	for i, p := range samples {
		st.appendSample(&w, i, p.T, p.V)
	}
	full := w.bytes()
	var it gIter
	it.init(full[:len(full)/2], len(samples))
	n := 0
	for it.Next() {
		n++
	}
	if it.Err() != errShortChunk || n == 0 || n >= len(samples) {
		t.Fatalf("half a stream decoded %d of %d samples with error %v", n, len(samples), it.Err())
	}
	lastT, lastV := it.At()
	for i := 0; i < 3; i++ {
		if it.Next() {
			t.Fatal("Next resumed after an error")
		}
		if it.Err() != errShortChunk {
			t.Fatalf("Err changed to %v", it.Err())
		}
		if gotT, gotV := it.At(); gotT != lastT || !sameBits(gotV, lastV) {
			t.Fatal("At moved after an error")
		}
	}
	// Clean exhaustion is not an error, and stays not one.
	it.init(full, len(samples))
	for it.Next() {
	}
	if it.Next() || it.Err() != nil {
		t.Fatalf("clean end of stream reports %v", it.Err())
	}
}

// TestSealRollupsMatchReference feeds a head in-order samples with
// stragglers mixed in and checks the insertion-built rollups a dump carries
// for the chunk (rollupsOf) against the map-and-sort reference.
func TestSealRollupsMatchReference(t *testing.T) {
	const ds = int64(5e9)
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		var h head
		var pts []Point
		for i := 0; i < 120; i++ {
			ts := int64(i) * 1e9
			if rng.Intn(6) == 0 {
				ts = int64(rng.Intn(120))*1e9 + int64(rng.Intn(1000)) // straggler, possibly a duplicate bucket
			}
			p := Point{T: ts, V: rng.NormFloat64()}
			pts = append(pts, p)
			h.append(p.T, p.V)
		}
		c := h.view()
		got := c.rollupsOf(ds)
		want := bucketize(ds, pts)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d rollups, reference %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d rollup %d: %+v, reference %+v", round, i, got[i], want[i])
			}
		}
	}
}

// bucketize computes a point list's per-bucket aggregates by the same rules
// rollupsOf uses, as an independent reference for chunk rollups.
func bucketize(ds int64, pts []Point) []Rollup {
	acc := make(map[int64]*Rollup)
	for _, p := range pts {
		bucket := floorDiv(p.T, ds) * ds
		r := acc[bucket]
		if r == nil {
			r = &Rollup{Bucket: bucket, Min: p.V, Max: p.V,
				First: p.V, Last: p.V, FirstT: p.T, LastT: p.T}
			acc[bucket] = r
		}
		r.Count++
		r.Sum += p.V
		if p.V < r.Min {
			r.Min = p.V
		}
		if p.V > r.Max {
			r.Max = p.V
		}
		if p.T < r.FirstT {
			r.FirstT, r.First = p.T, p.V
		}
		if p.T >= r.LastT {
			r.LastT, r.Last = p.T, p.V
		}
	}
	out := make([]Rollup, 0, len(acc))
	for _, r := range acc {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bucket < out[j].Bucket })
	return out
}
