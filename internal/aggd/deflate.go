package aggd

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
)

// gzipEncoder compresses one frame into one gzip member (RFC 1951 DEFLATE
// inside RFC 1952 framing). Its LZ77 parse is compress/flate's level 6
// (4-byte hash, lazy matching, good/lazy/nice/chain 8/16/128/128), so the
// output is the size stdlib would produce; what it drops are the two costs
// stdlib pays on every request whatever the request's size:
//
//   - no table clear per call: the hash tables hold absolute positions
//     offset by a running base, so an entry below the current call's base is
//     stale and nothing has to be zeroed between frames;
//   - one sort per Huffman table: symbols are sorted once by freq<<16|sym,
//     lengths come from in-place Moffat–Katajainen, and a Kraft fix-up caps
//     them at the format's limit.
//
// A block is dynamic, or fixed or stored when that is smaller, and holds at
// most dfMaxTokens tokens. The server decodes with stdlib gzip.Reader. An
// encoder is not safe for concurrent use; shippers take one from a pool.
type gzipEncoder struct {
	head [1 << dfHashBits]uint32 // hash → newest position + base
	prev [dfWindow]uint32        // position&dfWindowMask → previous position + base
	next uint32                  // one below the next call's base

	tokens [dfMaxTokens + 1]uint32 // one block's, plus its end-of-block marker
	out    []byte                  // the caller's buffer, during encode only
	bits   uint64                  // pending output bits, LSB first
	nbits  uint

	litFreq [dfNumLit]uint32
	offFreq [dfNumOff]uint32
	cgFreq  [dfNumCodegen]uint32
	litLen  [dfNumLit]uint8
	offLen  [dfNumOff]uint8
	cgLen   [dfNumCodegen]uint8
	litCode [dfNumLit]huffCode
	offCode [dfNumOff]huffCode
	cgCode  [dfNumCodegen]huffCode
	cgIn    [dfNumLit + dfNumOff]uint8 // concatenated code lengths
	codegen [dfNumLit + dfNumOff]uint8 // their run-length coding
	keys    [dfNumLit]uint32           // freq<<16|sym of the used symbols
	work    [dfNumLit]uint32           // Moffat–Katajainen scratch
}

const (
	dfWindow     = 1 << 15
	dfWindowMask = dfWindow - 1
	dfHashBits   = 17
	dfMinMatch   = 4 // the shortest match the parse emits (the format allows 3)
	dfMaxMatch   = 258
	dfLazy       = 16
	dfNice       = 128
	dfChain      = 128
	dfMaxTokens  = 1 << 14
	dfMaxStored  = math.MaxUint16
	dfNumLit     = 286
	dfNumOff     = 30
	dfNumCodegen = 19
	dfEOB        = 256
	dfMatch      = 1 << 31 // token flag: bits 15..22 length-3, bits 0..14 offset-1
)

// huffCode is one symbol's code, bit-reversed for the LSB-first writer.
type huffCode struct {
	code uint16
	len  uint8
}

var gzipHeader = [10]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255} // deflate, no name, no mtime, OS unknown

// codegenOrder is the order RFC 1951 §3.2.7 writes the code-length code's lengths.
var codegenOrder = [dfNumCodegen]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

var (
	lengthBase  = [29]uint8{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 255}
	lengthExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	lengthCode  [256]uint8 // length-3 → length code - 257

	fixedLit [dfNumLit]huffCode
	fixedOff [dfNumOff]huffCode
)

func init() {
	for c := range lengthBase {
		hi := 256
		if c+1 < len(lengthBase) {
			hi = int(lengthBase[c+1])
		}
		for x := int(lengthBase[c]); x < hi; x++ {
			lengthCode[x] = uint8(c)
		}
	}
	var lens [288]uint8
	var codes [288]huffCode
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	huffCodes(lens[:], codes[:])
	copy(fixedLit[:], codes[:])
	for s := range lens[:32] {
		lens[s] = 5
	}
	huffCodes(lens[:32], codes[:32])
	copy(fixedOff[:], codes[:])
}

// offsetCode maps offset-1 to its distance code and extra-bit count.
func offsetCode(x uint32) (code uint32, extra uint) {
	if x < 4 {
		return x, 0
	}
	l := uint32(bits.Len32(x)) - 1
	return 2*l + (x>>(l-1))&1, uint(l - 1)
}

// encode appends src compressed into one gzip member to dst and returns
// the extended slice. The encoder keeps no reference to dst, so it can go
// back to its pool as soon as encode returns.
func (e *gzipEncoder) encode(dst, src []byte) []byte {
	e.out = append(dst, gzipHeader[:]...)
	e.bits, e.nbits = 0, 0
	e.deflate(src)
	e.out = binary.LittleEndian.AppendUint32(e.out, crc32.ChecksumIEEE(src))
	out := binary.LittleEndian.AppendUint32(e.out, uint32(len(src)))
	e.out = nil
	return out
}

// deflate is flate level 6's lazy LZ77 parse over the whole of src, which
// it emits as blocks of at most dfMaxTokens tokens, the last one final.
//
//zerosum:hotpath
func (e *gzipEncoder) deflate(src []byte) {
	n := len(src)
	if uint64(e.next)+uint64(n) > math.MaxUint32 { // positions would wrap: start over
		clear(e.head[:])
		clear(e.prev[:])
		e.next = 0
	}
	base := int(e.next) + 1 // every entry below base, zero included, is stale
	e.next += uint32(n)
	tokens := e.tokens[:0]
	blockStart := 0
	maxInsert := n - (dfMinMatch - 1)
	length, offset := dfMinMatch-1, 0
	pending := false // src[index-1] awaits a literal-or-match decision
	index := 0
	for index < n {
		lookahead := n - index
		chainHead := -1
		if index < maxInsert {
			chainHead = e.insert(src, base, index)
		}
		prevLength, prevOffset := length, offset
		length, offset = dfMinMatch-1, 0
		if chainHead >= max(index-dfWindow, 0) && lookahead > prevLength && prevLength < dfLazy {
			if l, o, ok := e.findMatch(src, base, index, chainHead, lookahead); ok {
				length, offset = l, o
			}
		}
		if prevLength >= dfMinMatch && length <= prevLength {
			// The match at index-1 is at least as long: take it.
			tokens = append(tokens, dfMatch|uint32(prevLength-3)<<15|uint32(prevOffset-1))
			end := index + prevLength - 1
			for index++; index < end; index++ {
				if index < maxInsert {
					e.insert(src, base, index)
				}
			}
			pending = false
			length = dfMinMatch - 1
			if len(tokens) == dfMaxTokens {
				e.writeBlock(tokens, src[blockStart:index], false)
				tokens, blockStart = tokens[:0], index
			}
			continue
		}
		if pending {
			tokens = append(tokens, uint32(src[index-1]))
			if len(tokens) == dfMaxTokens {
				e.writeBlock(tokens, src[blockStart:index], false)
				tokens, blockStart = tokens[:0], index
			}
		}
		index++
		pending = true
	}
	if pending {
		tokens = append(tokens, uint32(src[n-1]))
	}
	e.writeBlock(tokens, src[blockStart:], true)
	e.alignBits()
}

// insert links position i into its hash chain and returns the chain's
// previous head, relative to base (negative when stale).
func (e *gzipEncoder) insert(src []byte, base, i int) int {
	h := (binary.BigEndian.Uint32(src[i:]) * 0x1e35a7bd) >> (32 - dfHashBits)
	old := e.head[h]
	e.prev[i&dfWindowMask] = old
	e.head[h] = uint32(base + i)
	return int(old) - base
}

// findMatch walks pos's hash chain from head for the longest match,
// exactly as flate's level 6 does.
//
//zerosum:hotpath
func (e *gzipEncoder) findMatch(src []byte, base, pos, head, lookahead int) (length, offset int, ok bool) {
	look := min(dfMaxMatch, lookahead)
	win := src[:pos+look]
	nice := min(look, dfNice)
	length = dfMinMatch - 1 // below level 6's good length (8): walk the whole chain
	wEnd := win[pos+length]
	wPos := win[pos:]
	minIndex := pos - dfWindow
	for i, tries := head, dfChain; tries > 0; tries-- {
		if wEnd == win[i+length] {
			m := matchLen(win[i:], wPos, look)
			if m > length && (m > dfMinMatch || pos-i <= 4096) {
				length, offset, ok = m, pos-i, true
				if m >= nice {
					break
				}
				wEnd = win[pos+m]
			}
		}
		if i == minIndex {
			break // prev[i] has been overwritten by a newer position
		}
		i = int(e.prev[i&dfWindowMask]) - base
		if i < minIndex || i < 0 {
			break
		}
	}
	return length, offset, ok
}

// matchLen is the length of the common prefix of a and b, up to limit;
// both hold at least limit bytes.
//
//zerosum:hotpath
func matchLen(a, b []byte, limit int) int {
	a, b = a[:limit], b[:limit]
	n := 0
	for ; n+8 <= limit; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for ; n < limit && a[n] == b[n]; n++ {
	}
	return n
}

// writeBlock emits tokens, which encode input, as one block in whichever of
// dynamic, fixed and stored is smallest.
func (e *gzipEncoder) writeBlock(tokens []uint32, input []byte, final bool) {
	tokens = append(tokens, dfEOB)
	clear(e.litFreq[:])
	clear(e.offFreq[:])
	for _, t := range tokens {
		if t < dfMatch {
			e.litFreq[t]++
			continue
		}
		e.litFreq[257+int(lengthCode[t>>15&0xff])]++
		oc, _ := offsetCode(t & 0x7fff)
		e.offFreq[oc]++
	}
	numLit := dfNumLit
	for e.litFreq[numLit-1] == 0 {
		numLit--
	}
	numOff := dfNumOff
	for numOff > 0 && e.offFreq[numOff-1] == 0 {
		numOff--
	}
	if numOff == 0 {
		// A dynamic header needs at least one distance code.
		e.offFreq[0], numOff = 1, 1
	}
	extra := 0
	for c := 8; c < numLit-257; c++ {
		extra += int(e.litFreq[257+c]) * int(lengthExtra[c])
	}
	for c := 4; c < numOff; c++ {
		extra += int(e.offFreq[c]) * (c/2 - 1)
	}

	huffLengths(e.litFreq[:], e.litLen[:], 15, e.keys[:], e.work[:])
	huffLengths(e.offFreq[:], e.offLen[:], 15, e.keys[:], e.work[:])
	codegen := e.runLengths(numLit, numOff)
	huffLengths(e.cgFreq[:], e.cgLen[:], 7, e.keys[:], e.work[:])
	numCG := dfNumCodegen
	for numCG > 4 && e.cgFreq[codegenOrder[numCG-1]] == 0 {
		numCG--
	}
	dynamic := 3 + 5 + 5 + 4 + 3*numCG + extra +
		int(e.cgFreq[16])*2 + int(e.cgFreq[17])*3 + int(e.cgFreq[18])*7 +
		bitCost(e.cgFreq[:], e.cgLen[:]) + bitCost(e.litFreq[:], e.litLen[:]) + bitCost(e.offFreq[:], e.offLen[:])
	fixed := 3 + extra
	for s, f := range e.litFreq {
		fixed += int(f) * int(fixedLit[s].len)
	}
	for _, f := range e.offFreq {
		fixed += int(f) * 5
	}

	size, lit, off := fixed, fixedLit[:], fixedOff[:]
	useDynamic := dynamic < fixed
	if useDynamic {
		size = dynamic
		huffCodes(e.litLen[:], e.litCode[:])
		huffCodes(e.offLen[:], e.offCode[:])
		lit, off = e.litCode[:], e.offCode[:]
	}
	if len(input) <= dfMaxStored && (len(input)+5)*8 < size {
		e.writeStored(input, final)
		return
	}
	if useDynamic {
		e.putBits(4|b2u(final), 3)
		e.putBits(uint64(numLit-257), 5)
		e.putBits(uint64(numOff-1), 5)
		e.putBits(uint64(numCG-4), 4)
		for _, s := range codegenOrder[:numCG] {
			e.putBits(uint64(e.cgLen[s]), 3)
		}
		huffCodes(e.cgLen[:], e.cgCode[:])
		for i := 0; i < len(codegen); i++ {
			s := codegen[i]
			e.putBits(uint64(e.cgCode[s].code), uint(e.cgCode[s].len))
			if s >= 16 {
				i++
				e.putBits(uint64(codegen[i]), uint(cgExtra[s-16]))
			}
		}
	} else {
		e.putBits(2|b2u(final), 3)
	}
	e.writeTokens(tokens, lit, off)
}

var cgExtra = [3]uint8{2, 3, 7}

// runLengths codes the concatenated literal and distance code lengths with
// RFC 1951's repeat codes 16–18, counting each code-length symbol in cgFreq.
func (e *gzipEncoder) runLengths(numLit, numOff int) []uint8 {
	in := append(append(e.cgIn[:0], e.litLen[:numLit]...), e.offLen[:numOff]...)
	out := e.codegen[:0] // never longer than in
	clear(e.cgFreq[:])
	for i := 0; i < len(in); {
		l, run := in[i], 1
		for i+run < len(in) && in[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for run >= 11 {
				r := min(run, 138)
				out = append(out, 18, uint8(r-11))
				e.cgFreq[18]++
				run -= r
			}
			if run >= 3 {
				out = append(out, 17, uint8(run-3))
				e.cgFreq[17]++
				run = 0
			}
		} else {
			out = append(out, l)
			e.cgFreq[l]++
			for run--; run >= 3; {
				r := min(run, 6)
				out = append(out, 16, uint8(r-3))
				e.cgFreq[16]++
				run -= r
			}
		}
		for ; run > 0; run-- {
			out = append(out, l)
			e.cgFreq[l]++
		}
	}
	return out
}

// writeTokens emits the block's tokens, EOB last, under the given codes.
//
//zerosum:hotpath
func (e *gzipEncoder) writeTokens(tokens []uint32, lit, off []huffCode) {
	acc, nb, out := e.bits, e.nbits, e.out
	for _, t := range tokens {
		if t < dfMatch {
			c := lit[t]
			acc |= uint64(c.code) << nb
			nb += uint(c.len)
		} else {
			x := t >> 15 & 0xff
			lc := lengthCode[x]
			c := lit[257+int(lc)]
			acc |= (uint64(c.code) | uint64(x-uint32(lengthBase[lc]))<<c.len) << nb
			nb += uint(c.len + lengthExtra[lc])
			if nb >= 32 {
				out = binary.LittleEndian.AppendUint32(out, uint32(acc))
				acc >>= 32
				nb -= 32
			}
			y := t & 0x7fff
			oc, ob := offsetCode(y)
			c = off[oc]
			acc |= (uint64(c.code) | uint64(y&(1<<ob-1))<<c.len) << nb
			nb += uint(c.len) + ob
		}
		if nb >= 32 {
			out = binary.LittleEndian.AppendUint32(out, uint32(acc))
			acc >>= 32
			nb -= 32
		}
	}
	e.bits, e.nbits, e.out = acc, nb, out
}

// writeStored emits input as a stored block.
func (e *gzipEncoder) writeStored(input []byte, final bool) {
	e.putBits(b2u(final), 3)
	e.alignBits()
	e.out = binary.LittleEndian.AppendUint16(e.out, uint16(len(input)))
	e.out = binary.LittleEndian.AppendUint16(e.out, ^uint16(len(input)))
	e.out = append(e.out, input...)
}

// putBits appends the low n (≤ 32) bits of b.
func (e *gzipEncoder) putBits(b uint64, n uint) {
	e.bits |= b << e.nbits
	e.nbits += n
	if e.nbits >= 32 {
		e.out = binary.LittleEndian.AppendUint32(e.out, uint32(e.bits))
		e.bits >>= 32
		e.nbits -= 32
	}
}

// alignBits pads the pending bits with zeros to a byte boundary and
// appends them.
func (e *gzipEncoder) alignBits() {
	for ; e.nbits > 0; e.nbits -= min(e.nbits, 8) {
		e.out = append(e.out, byte(e.bits))
		e.bits >>= 8
	}
	e.bits = 0
}

// huffLengths sets lens[s] to the code length of symbol s: a minimum-
// redundancy code over the symbols with freq[s] > 0, limited to maxBits.
// keys and work are scratch at least as long as freq.
func huffLengths(freq []uint32, lens []uint8, maxBits uint32, keys, work []uint32) {
	keys = keys[:0]
	for s, f := range freq {
		lens[s] = 0
		if f != 0 {
			keys = append(keys, f<<16|uint32(s))
		}
	}
	n := len(keys)
	if n < 2 {
		if n == 1 {
			lens[keys[0]&0xffff] = 1
		}
		return
	}
	slices.Sort(keys)
	a := work[:n]
	for i, k := range keys {
		a[i] = k >> 16
	}
	// Moffat & Katajainen, "In-place calculation of minimum-redundancy
	// codes" (1995): a[] first becomes the internal nodes' weights and
	// parent links, then their depths, then the leaves' depths.
	leaf, root := 0, 0
	for next := 0; next < n-1; next++ {
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] = a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	avail, used, depth := 1, 0, uint32(0)
	for r, next := n-2, n-1; avail > 0; depth++ {
		for r >= 0 && a[r] == depth {
			used++
			r--
		}
		for ; avail > used; avail-- {
			a[next] = depth
			next--
		}
		avail, used = 2*used, 0
	}
	// a[i] is now keys[i]'s depth, non-increasing in i. If the deepest
	// exceeds maxBits, clamp and restore the Kraft sum by moving codes
	// one level deeper, then hand the longest lengths to the rarest symbols.
	if a[0] > maxBits {
		var count [16]int
		for _, d := range a {
			count[min(d, maxBits)]++
		}
		total := 0
		for l := uint32(1); l <= maxBits; l++ {
			total += count[l] << (maxBits - l)
		}
		for ; total > 1<<maxBits; total-- {
			count[maxBits]--
			for l := maxBits - 1; l > 0; l-- {
				if count[l] > 0 {
					count[l]--
					count[l+1] += 2
					break
				}
			}
		}
		i := 0
		for l := maxBits; l > 0; l-- {
			for c := count[l]; c > 0; c-- {
				a[i] = l
				i++
			}
		}
	}
	for i, k := range keys {
		lens[k&0xffff] = uint8(a[i])
	}
}

// huffCodes assigns the canonical code of RFC 1951 §3.2.2 to every symbol
// with a non-zero length.
func huffCodes(lens []uint8, codes []huffCode) {
	var count, next [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l, code := 1, uint16(0); l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lens {
		if l == 0 {
			codes[s] = huffCode{}
			continue
		}
		codes[s] = huffCode{code: bits.Reverse16(next[l]) >> (16 - l), len: l}
		next[l]++
	}
}

// bitCost is the number of bits freq costs under lens.
func bitCost(freq []uint32, lens []uint8) int {
	total := 0
	for s, f := range freq {
		total += int(f) * int(lens[s])
	}
	return total
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
